package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
	"waferscale/internal/noc"
)

// Fixed intra-tile access latencies in cycles. Remote latencies emerge
// from the network simulation.
const (
	latPrivate   = 1 // core-private SRAM
	latLocalBank = 2 // tile-local bank through the crossbar
	latOwnGlobal = 3 // own tile's shared banks through the crossbar
)

// Memory operation codes (see pagedMem.apply), carried in the low two
// bits of a remote request's tag.
const (
	memLoad = iota
	memStore
	memAmoAdd
	memAmoMin
)

// memArgs decodes a memory instruction into its operation code, the
// destination register (-1 for a store) and the operand (0 for a load):
// what a local access applies and a remote request carries.
func memArgs(c *Core, in Instr) (op uint32, reg int, data uint32) {
	switch in.Op {
	case OpSw:
		return memStore, -1, c.Regs[in.Rs2]
	case OpAmoAdd:
		return memAmoAdd, in.Rd, c.Regs[in.Rs2]
	case OpAmoMin:
		return memAmoMin, in.Rd, c.Regs[in.Rs2]
	}
	return memLoad, in.Rd, 0
}

// coreState is the execution state of one core.
type coreState int

const (
	coreRunning coreState = iota
	coreStalled           // fixed-latency access in flight
	coreRemote            // remote request in flight (or awaiting injection)
	coreHalted
	coreFaulted
)

// Core is one in-order WS-ISA core with its private SRAM.
type Core struct {
	tile geom.Coord
	idx  int

	Regs [16]uint32
	PC   uint32
	priv pagedMem

	state      coreState
	stallUntil int64
	// pending fixed-latency load destination (-1 when none).
	loadReg int
	loadVal uint32
	// pending remote op.
	rem struct {
		injected bool
		net      noc.Network
		dst      geom.Coord
		tag      uint32
		payload  uint64
		reg      int // destination register for load/amo (-1 for store)
		issuedAt int64
		deadline int64 // cycle after which the op is declared lost
		attempts int   // re-plan/retry count so far
	}

	Instret     int64 // retired instructions
	StallFixed  int64 // cycles stalled on private/bank latency
	StallRemote int64 // cycles stalled on remote round trips
	RetryCycles int64 // cycles burned retrying bank conflicts
	Err         error // set when the core faults
}

// Halted reports whether the core stopped (halt or fault).
func (c *Core) Halted() bool { return c.state == coreHalted || c.state == coreFaulted }

// Tile is one tile: cores plus the memory chiplet's banks.
type Tile struct {
	Coord geom.Coord
	Cores []*Core
	// mem holds the banks end to end: bank b starts at b*BankBytes, the
	// global banks first and the tile-local bank after them.
	mem pagedMem
	// bankBusy tracks the last cycle each bank served an access, for
	// single-port contention.
	bankBusy []int64
	// dead marks a tile killed at runtime (vs. nil for tiles faulty at
	// construction). Its cores are faulted and its banks unreachable;
	// the struct is kept so the cores' stats and errors stay readable.
	dead bool

	// run lists the indices of cores that are not halted or faulted, in
	// ascending order, so stepping a tile touches only its runnable
	// cores (Machine.active lets Step skip quiescent tiles altogether).
	// A core that stops mid-cycle only marks runDirty; the list is
	// compacted after the tile's step so the in-flight iteration stays
	// stable.
	run      []int
	runDirty bool
}

// compactRun drops stopped cores from the runnable list.
func (t *Tile) compactRun() {
	keep := t.run[:0]
	for _, idx := range t.run {
		if !t.Cores[idx].Halted() {
			keep = append(keep, idx)
		}
	}
	t.run = keep
	t.runDirty = false
}

// addRunnable inserts a core index into the sorted runnable list (no-op
// when already present).
func (t *Tile) addRunnable(idx int) {
	i := sort.SearchInts(t.run, idx)
	if i < len(t.run) && t.run[i] == idx {
		return
	}
	t.run = append(t.run, 0)
	copy(t.run[i+1:], t.run[i:])
	t.run[i] = idx
}

// Machine is the whole (or partial) waferscale system.
type Machine struct {
	Cfg    arch.Config
	grid   geom.Grid
	fm     *fault.Map
	amap   *arch.AddressMap
	kernel *noc.Kernel
	net    *noc.Sim
	tiles  []*Tile
	// active has bit i set when tiles[i] is live and may hold a runnable
	// core; a clear bit means it holds none. LoadProgram sets a bit and
	// Step clears it once the tile is dead or its run list is empty, so
	// a cycle visits only the few tiles a kernel keeps busy.
	active []uint64
	// topoName is the normalized NoC topology the machine was built
	// with (see TopologyName).
	topoName string

	cycle   int64
	pending []responseToSend
	tagSeq  uint32

	// Remote-op robustness knobs. A remote access outstanding past
	// RemoteTimeout cycles is declared lost and reissued along a freshly
	// planned route; after RemoteRetries reissues the destination is
	// marked degraded and the core faults with a structured error.
	// RemoteTimeout <= 0 disables deadlines (the pre-chaos behaviour).
	RemoteTimeout int64
	RemoteRetries int

	// Runtime-fault state (see degradation.go).
	schedEvents []inject.Event
	schedAt     int
	pendingFwd  []forwardToSend
	// remap[tileIdx] is the grid index of the healthy tile hosting the
	// dead tile's global window; shadow[tileIdx] is the zero-initialized
	// reserve storage for that window (the data itself is lost).
	remap  map[int]int
	shadow map[int]*pagedMem
	degr   DegradationReport

	// Progress, when non-nil, is invoked by RunCtx every
	// runProgressStride cycles with the cycle reached — the
	// cycles-stepped feed the serve layer streams to clients. The
	// strides a spin fast-forward skips are reported before the machine
	// lands past them, so it must observe the machine, never change it.
	// It runs on the goroutine driving the machine, never concurrently.
	Progress func(cycle int64)

	// lastWrite is the last cycle a write changed memory, and spin the
	// fast-forward it arms (spin.go).
	lastWrite int64
	spin      spinDetector

	// Stats.
	RemoteRequests int64
	RemoteLatency  int64 // summed cycles from issue to completion
	BankConflicts  int64

	// running counts cores that are neither halted nor faulted, so
	// AllHalted is a counter check instead of a 14×N scan per cycle.
	running int
	// fullScan disables the runnable-list fast path: Step touches every
	// core of every tile and AllHalted scans, exactly like the
	// pre-optimization engine. Differential tests flip this to prove the
	// fast path is behavior-identical; it is never set in production.
	fullScan bool
}

type responseToSend struct {
	net noc.Network
	src geom.Coord
	// finalDst is the requesting tile. The response may be injected
	// toward a relay when the direct return path is broken.
	finalDst geom.Coord
	tag      uint32
	result   uint32
}

// forwardToSend is a packet parked at a relay tile awaiting
// re-injection (it met backpressure or arrived this cycle).
type forwardToSend struct {
	at  geom.Coord
	pkt noc.Packet
}

// NewMachine builds a machine for a configuration and fault map. The
// configuration's tile array must match the fault map's grid.
func NewMachine(cfg arch.Config, fm *fault.Map) (*Machine, error) {
	return NewMachineTopology(cfg, fm, "")
}

// NewMachineTopology builds a machine whose interconnect uses the named
// NoC topology ("" = the prototype's dual-DoR mesh; see
// noc.TopologyNames). Transport — every remote load/store, DMA and
// barrier packet — rides the named link graph, and the fault-bypass
// relay planner (noc.Kernel) plans on the same graph: a pair is served
// directly when the topology's XY or YX route is clear, and through
// the fewest relay tiles otherwise.
func NewMachineTopology(cfg arch.Config, fm *fault.Map, topology string) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fm == nil {
		return nil, fmt.Errorf("sim: nil fault map")
	}
	if cfg.Grid() != fm.Grid() {
		return nil, fmt.Errorf("sim: config grid %v != fault map grid %v", cfg.Grid(), fm.Grid())
	}
	name, err := noc.NormalizeTopology(topology)
	if err != nil {
		return nil, err
	}
	topo, err := noc.NewTopology(name, cfg.Grid())
	if err != nil {
		return nil, err
	}
	netSim, err := noc.NewSimTopology(fm, noc.DefaultSimConfig(), topo)
	if err != nil {
		return nil, err
	}
	g := cfg.Grid()
	m := &Machine{
		Cfg:      cfg,
		grid:     g,
		fm:       fm,
		amap:     arch.NewAddressMap(cfg),
		kernel:   noc.NewKernel(topo, fm),
		net:      netSim,
		tiles:    make([]*Tile, g.Size()),
		active:   make([]uint64, (g.Size()+63)/64),
		topoName: name,
		// Worst-case healthy round trip is ~2*(W+H) hops of a few cycles
		// each plus queuing; 64x the semi-perimeter leaves generous slack
		// so healthy runs never trip a false timeout.
		RemoteTimeout: int64(64 * (g.W + g.H)),
		RemoteRetries: 3,
		remap:         make(map[int]int),
		shadow:        make(map[int]*pagedMem),
	}
	netSim.OnDeliver = m.onDeliver
	m.grid.All(func(c geom.Coord) {
		if fm.Faulty(c) {
			return
		}
		t := &Tile{
			Coord:    c,
			mem:      newPagedMem(cfg.SharedBanksPerTile * cfg.BankBytes),
			bankBusy: make([]int64, cfg.SharedBanksPerTile),
		}
		for i := 0; i < cfg.CoresPerTile; i++ {
			t.Cores = append(t.Cores, &Core{
				tile:    c,
				idx:     i,
				priv:    newPagedMem(cfg.PrivateMemPerCore),
				state:   coreHalted, // cores start parked until a program loads
				loadReg: -1,
			})
		}
		m.tiles[m.grid.Index(c)] = t
	})
	return m, nil
}

// Tile returns the tile at c, or nil for faulty or runtime-killed
// tiles.
func (m *Machine) Tile(c geom.Coord) *Tile {
	if !m.grid.In(c) {
		return nil
	}
	t := m.tiles[m.grid.Index(c)]
	if t == nil || t.dead {
		return nil
	}
	return t
}

// Cycle returns the elapsed cycles.
func (m *Machine) Cycle() int64 { return m.cycle }

// TopologyName returns the normalized name of the NoC topology the
// machine was built with ("mesh", "cmesh", "express" or "vertical").
func (m *Machine) TopologyName() string { return m.topoName }

// Net exposes the network simulator's statistics.
func (m *Machine) Net() *noc.Sim { return m.net }

// LoadProgram writes an assembled program into a core's private SRAM
// at address 0, resets the core and starts it.
func (m *Machine) LoadProgram(tile geom.Coord, core int, words []uint32) error {
	t := m.Tile(tile)
	if t == nil {
		return fmt.Errorf("sim: tile %v is faulty or out of range", tile)
	}
	if core < 0 || core >= len(t.Cores) {
		return fmt.Errorf("sim: core %d out of range", core)
	}
	c := t.Cores[core]
	if len(words)*4 > c.priv.size {
		return fmt.Errorf("sim: program (%d words) exceeds private SRAM", len(words))
	}
	for i, w := range words {
		c.priv.store32(uint32(4*i), w)
	}
	wasStopped := c.Halted()
	c.PC = 0
	c.Regs = [16]uint32{}
	c.state = coreRunning
	c.Err = nil
	c.Instret = 0
	m.lastWrite = m.cycle
	if wasStopped {
		m.running++
		t.addRunnable(core)
		i := m.grid.Index(tile)
		m.active[i>>6] |= 1 << uint(i&63)
	}
	return nil
}

// WritePrivate32 is the host backdoor into a core's private SRAM (the
// JTAG path in the prototype), used to pass per-core parameters.
func (m *Machine) WritePrivate32(tile geom.Coord, core int, addr uint32, v uint32) error {
	_, err := m.applyPrivate(tile, core, addr, memStore, v)
	return err
}

// applyPrivate performs a host backdoor memory operation on a core's
// private SRAM and returns the word's old value.
func (m *Machine) applyPrivate(tile geom.Coord, core int, addr uint32, op uint32, data uint32) (uint32, error) {
	t := m.Tile(tile)
	if t == nil {
		return 0, fmt.Errorf("sim: tile %v is faulty or out of range", tile)
	}
	if core < 0 || core >= len(t.Cores) {
		return 0, fmt.Errorf("sim: core %d out of range", core)
	}
	if int(addr)+4 > t.Cores[core].priv.size || addr%4 != 0 {
		return 0, fmt.Errorf("sim: bad private address %#x", addr)
	}
	return m.apply(&t.Cores[core].priv, addr, op, data), nil
}

// apply performs a memory operation on mem and returns the word's old
// value, noting the cycle when it changed memory.
func (m *Machine) apply(mem *pagedMem, off uint32, op uint32, data uint32) uint32 {
	old, changed := mem.apply(off, op, data)
	if changed {
		m.lastWrite = m.cycle
	}
	return old
}

// globalID returns a core's global id: tileIndex*coresPerTile + idx.
func (m *Machine) globalID(c *Core) uint32 {
	return uint32(m.grid.Index(c.tile)*m.Cfg.CoresPerTile + c.idx)
}

// applyGlobal performs a memory operation on the word backing a global
// address and returns its old value. The backing is the owner's banks
// while it is alive, or the shadow reserve storage when it died at
// runtime and its window was remapped; an address with neither is an
// error. The host backdoors and served remote requests both go through
// here.
func (m *Machine) applyGlobal(addr uint32, op uint32, data uint32) (uint32, error) {
	tile, bank, off, err := m.amap.GlobalTarget(addr)
	if err != nil {
		return 0, err
	}
	i := m.grid.Index(tile)
	var mem *pagedMem
	if t := m.tiles[i]; t != nil && !t.dead {
		mem = &t.mem
	} else if mem = m.shadow[i]; mem == nil {
		return 0, fmt.Errorf("sim: global address %#x lives on faulty tile %v", addr, tile)
	}
	return m.apply(mem, uint32(bank)*uint32(m.Cfg.BankBytes)+off, op, data), nil
}

// routeTarget returns the tile that currently serves a global address:
// the owning tile, or — after the owner died at runtime — the healthy
// tile hosting its remapped window (the Section VIII degraded mode).
func (m *Machine) routeTarget(addr uint32) (geom.Coord, error) {
	tile, _, _, err := m.amap.GlobalTarget(addr)
	if err != nil {
		return geom.Coord{}, err
	}
	i := m.grid.Index(tile)
	if t := m.tiles[i]; t != nil && !t.dead {
		return tile, nil
	}
	if host, ok := m.remap[i]; ok {
		return m.grid.Coord(host), nil
	}
	return geom.Coord{}, fmt.Errorf("sim: global address %#x lives on faulty tile %v with no fallback", addr, tile)
}

// ReadGlobal32 is the host (JTAG-style) backdoor into shared memory,
// used for workload setup and result verification. It follows runtime
// remaps into the shadow storage.
func (m *Machine) ReadGlobal32(addr uint32) (uint32, error) {
	return m.applyGlobal(addr, memLoad, 0)
}

// WriteGlobal32 is the host backdoor for stores.
func (m *Machine) WriteGlobal32(addr uint32, v uint32) error {
	_, err := m.applyGlobal(addr, memStore, v)
	return err
}

// onDeliver handles packets ejecting at a tile: a request is served by
// this tile (or forwarded when this tile is a relay on a kernel
// detour), a response completes the waiting core (or is forwarded when
// this tile relays the return path).
func (m *Machine) onDeliver(p noc.Packet) {
	if p.Kind == noc.Request {
		addr := uint32(p.Payload >> 32)
		if target, err := m.routeTarget(addr); err == nil && target != p.Dst {
			// This tile is a relay on a multi-leg detour (paper Section
			// VI): spend a cycle and re-inject toward the target.
			m.pendingFwd = append(m.pendingFwd, forwardToSend{at: p.Dst, pkt: p})
			return
		}
		// Serve the memory operation on this tile's banks, then queue
		// the response onto the complementary network (the pairing is
		// baked into the router hardware in the prototype).
		result := m.serveRemote(p)
		m.pending = append(m.pending, responseToSend{
			net:      p.Net.Complement(),
			src:      p.Dst,
			finalDst: p.Src,
			tag:      p.Tag,
			result:   result,
		})
		return
	}
	// Response: payload high bits carry the requesting tile's index so
	// relay tiles can forward responses whose direct return path broke.
	if fi := int(p.Payload >> 32); fi >= 0 && fi < m.grid.Size() {
		if final := m.grid.Coord(fi); final != p.Dst {
			m.pendingFwd = append(m.pendingFwd, forwardToSend{at: p.Dst, pkt: p})
			return
		}
	}
	// Complete the waiting core.
	t := m.Tile(p.Dst)
	if t == nil {
		return
	}
	coreIdx := int(p.Tag >> 2 & 0xF)
	if coreIdx >= len(t.Cores) {
		return
	}
	c := t.Cores[coreIdx]
	if c.state != coreRemote || c.rem.tag != p.Tag {
		return // stale response (e.g. a retried op's first try); ignore
	}
	if c.rem.reg > 0 { // r0 is hardwired zero
		c.Regs[c.rem.reg] = uint32(p.Payload)
	}
	m.RemoteRequests++
	m.RemoteLatency += m.cycle - c.rem.issuedAt
	c.state = coreRunning
}

// serveRemote performs a remote memory op at the destination tile.
// Payload layout: addr in the high 32 bits, data in the low 32. The
// serving tile is either the address's owner or the host of the dead
// owner's remapped (shadow) window.
func (m *Machine) serveRemote(p noc.Packet) uint32 {
	addr := uint32(p.Payload >> 32)
	tile, err := m.amap.TileOf(addr)
	if err != nil {
		return 0xDEAD0000
	}
	if tile != p.Dst {
		host, ok := m.remap[m.grid.Index(tile)]
		if !ok || host != m.grid.Index(p.Dst) {
			return 0xDEAD0000
		}
	}
	old, err := m.applyGlobal(addr, p.Tag&0b11, uint32(p.Payload))
	if err != nil {
		return 0xDEAD0001
	}
	return old
}

// Step advances the machine one cycle.
func (m *Machine) Step() {
	m.cycle++
	m.applyScheduled()
	m.net.Step()
	m.flushResponses()
	m.flushForwards()
	if m.fullScan {
		m.stepCoresFullScan()
		return
	}
	// Walk the active tiles in ascending index, the full scan's order.
	for w, word := range m.active {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			t := m.tiles[w<<6|b]
			if !t.dead {
				m.stepTile(t)
			}
			if t.dead || len(t.run) == 0 {
				m.active[w] &^= 1 << uint(b)
			}
		}
	}
}

// Close is a no-op; kept only because bench/ references it. ROADMAP
// item 1's benchmark revision deletes it together with fig7Shards.
func (m *Machine) Close() {}

// stepTile advances every runnable core of one tile, then drops the
// cores that stopped from its run list.
func (m *Machine) stepTile(t *Tile) {
	// Rotate the stepping order so crossbar-bank arbitration is
	// fair: with fixed priority, spinning readers on a bank can
	// starve a later core's write indefinitely (barrier livelock).
	// The rotation is over the full core index space, so stepping
	// the runnable subsequence from the first index >= start visits
	// the same cores in the same order as the full scan.
	n := len(t.Cores)
	start := int(m.cycle) % n
	k := sort.SearchInts(t.run, start)
	for i, nr := 0, len(t.run); i < nr; i++ {
		j := k + i
		if j >= nr {
			j -= nr
		}
		m.stepCore(t, t.Cores[t.run[j]])
	}
	if t.runDirty {
		t.compactRun()
	}
}

// stepCoresFullScan is the pre-optimization core loop: every core of
// every live tile is touched each cycle. Kept as the reference for the
// fast path's differential tests.
func (m *Machine) stepCoresFullScan() {
	for _, t := range m.tiles {
		if t == nil || t.dead {
			continue
		}
		n := len(t.Cores)
		start := int(m.cycle) % n
		for i := 0; i < n; i++ {
			m.stepCore(t, t.Cores[(start+i)%n])
		}
	}
}

// flushResponses injects queued responses, retrying those that met
// backpressure. A response whose server tile has since died is dropped
// (the requester's deadline recovers it); one whose direct return path
// broke is re-planned through the kernel, possibly via relays.
func (m *Machine) flushResponses() {
	retry := m.pending[:0]
	for _, r := range m.pending {
		if m.fm.Faulty(r.src) {
			m.degr.DroppedResponses++
			continue
		}
		net, first := r.net, r.finalDst
		if !m.kernel.Analyzer().PathClear(net, r.src, r.finalDst) {
			dec, err := m.kernel.Decide(r.src, r.finalDst)
			if err != nil || !dec.Reachable {
				m.degr.DroppedResponses++
				continue
			}
			net = dec.Request
			if len(dec.Via) > 0 {
				first = dec.Via[0]
			}
		}
		payload := uint64(m.grid.Index(r.finalDst))<<32 | uint64(r.result)
		if _, err := m.net.Inject(net, r.src, first, noc.Response, r.tag, payload); err != nil {
			retry = append(retry, r)
		}
	}
	m.pending = retry
}

// flushForwards re-injects packets parked at relay tiles: requests
// toward the tile serving their address, responses toward the
// requesting tile encoded in the payload.
func (m *Machine) flushForwards() {
	retry := m.pendingFwd[:0]
	for _, f := range m.pendingFwd {
		if m.fm.Faulty(f.at) {
			m.degr.DroppedForwards++
			continue
		}
		var target geom.Coord
		if f.pkt.Kind == noc.Request {
			t, err := m.routeTarget(uint32(f.pkt.Payload >> 32))
			if err != nil {
				m.degr.DroppedForwards++
				continue
			}
			target = t
		} else {
			target = m.grid.Coord(int(f.pkt.Payload >> 32))
		}
		if target == f.at {
			// The window remapped onto this very tile while the packet
			// was in flight: deliver locally instead of forwarding.
			p := f.pkt
			p.Dst = f.at
			m.onDeliver(p)
			continue
		}
		dec, err := m.kernel.Decide(f.at, target)
		if err != nil || !dec.Reachable {
			m.degr.DroppedForwards++
			continue
		}
		next := target
		if len(dec.Via) > 0 {
			next = dec.Via[0]
		}
		if err := m.net.Forward(dec.Request, f.at, next, f.pkt); err != nil {
			retry = append(retry, f) // backpressure: park until next cycle
			continue
		}
		if f.pkt.Kind == noc.Request {
			m.degr.RelayedRequests++
		} else {
			m.degr.RelayedResponses++
		}
	}
	m.pendingFwd = retry
}

// RunCtx steps until every started core halts or maxCycles pass, with
// cancellation and optional cycle progress: every runProgressStride
// cycles the machine checks ctx (returning ctx.Err() with the machine
// paused at a cycle boundary — the state stays consistent and the run
// can even be resumed by calling RunCtx again) and invokes Progress, if
// set, with the current cycle count. On every exit path — halt, budget
// expiry, cancellation — one final Progress call reports the terminal
// cycle count, so progress streams never end with a stale
// mid-interval value.
//
// A machine whose spin has become periodic (every surviving core
// waiting on a barrier a dead worker never reaches) is fast-forwarded
// by whole periods toward the budget (spin.go). Its state, counters,
// cycle count and Progress calls come out as stepping every cycle would
// leave them, but the Progress calls of the skipped cycles are made
// before the machine lands on them. The execution is bit-identical for
// any ctx that is never cancelled, and a cancelled run pauses on the
// stride cycle where the cancellation was seen, as it would stepping.
func (m *Machine) RunCtx(ctx context.Context, maxCycles int64) error {
	start := m.cycle
	target := start + maxCycles
	m.spin.reset(m, target)
	for m.cycle < target && !m.AllHalted() {
		if i := m.cycle - start; i%runProgressStride == 0 && i > 0 {
			// The stride call already reports this cycle, so a cancelled
			// run's last Progress value is its pause cycle.
			if err := m.strideCheck(ctx, m.cycle); err != nil {
				return err
			}
		}
		m.Step()
		m.spin.stepped++
		quiet := m.cycle-m.lastWrite >= m.spin.quiet && m.schedAt == len(m.schedEvents)
		if !quiet && !m.spin.armed {
			continue
		}
		if period := m.spinPeriod(quiet); period > 0 {
			if err := m.fastForward(ctx, start, target, period); err != nil {
				return err
			}
		}
	}
	if m.Progress != nil {
		m.Progress(m.cycle)
	}
	if m.AllHalted() {
		return nil
	}
	return &BudgetError{Cycles: maxCycles}
}

// strideCheck is RunCtx's check at a stride cycle: report the cycle to
// Progress, then poll ctx.
func (m *Machine) strideCheck(ctx context.Context, cycle int64) error {
	if m.Progress != nil {
		m.Progress(cycle)
	}
	return ctx.Err()
}

// BudgetError reports a run that did not quiesce within its cycle
// budget — the never-hang bound expired with cores still running. The
// machine is left paused at a cycle boundary and remains usable.
type BudgetError struct {
	// Cycles is the budget that expired (RunCtx's maxCycles).
	Cycles int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: not halted after %d cycles", e.Cycles)
}

// runProgressStride is the cycle interval between RunCtx's ctx checks
// and Progress callbacks — coarse enough to stay off the hot path's
// profile, fine enough that cancellation lands within milliseconds.
const runProgressStride = 4096

// AllHalted reports whether every core is halted or faulted — an O(1)
// counter check (the full scan survives under the fullScan test flag).
func (m *Machine) AllHalted() bool {
	if !m.fullScan {
		return m.running == 0
	}
	for _, t := range m.tiles {
		if t == nil {
			continue
		}
		for _, c := range t.Cores {
			if !c.Halted() {
				return false
			}
		}
	}
	return true
}

// Faults returns the errors of all faulted cores.
func (m *Machine) Faults() []error {
	var out []error
	for _, t := range m.tiles {
		if t == nil {
			continue
		}
		for _, c := range t.Cores {
			if c.state == coreFaulted {
				out = append(out, fmt.Errorf("tile %v core %d @pc=%#x: %w", t.Coord, c.idx, c.PC, c.Err))
			}
		}
	}
	return out
}

// AvgRemoteLatency returns mean remote access round-trip cycles.
func (m *Machine) AvgRemoteLatency() float64 {
	if m.RemoteRequests == 0 {
		return 0
	}
	return float64(m.RemoteLatency) / float64(m.RemoteRequests)
}

// fault stops a core with a structured error.
func (m *Machine) fault(c *Core, format string, args ...any) {
	c.Err = fmt.Errorf(format, args...)
	c.state = coreFaulted
	m.coreStopped(c)
}

// coreStopped books a running → halted/faulted transition: the machine
// counter backs O(1) AllHalted and the tile's runnable list is marked
// for compaction. Callers must only invoke it for cores that were not
// already stopped.
func (m *Machine) coreStopped(c *Core) {
	m.running--
	if t := m.tiles[m.grid.Index(c.tile)]; t != nil {
		t.runDirty = true
	}
}

func (m *Machine) stepCore(t *Tile, c *Core) {
	switch c.state {
	case coreHalted, coreFaulted:
		return
	case coreStalled:
		if m.cycle < c.stallUntil {
			c.StallFixed++
			return
		}
		if c.loadReg > 0 { // r0 is hardwired zero
			c.Regs[c.loadReg] = c.loadVal
		}
		c.loadReg = -1
		c.state = coreRunning
		return // the completing cycle does not also execute
	case coreRemote:
		m.stepRemote(c)
		return
	}
	m.execute(t, c)
}

// stepRemote is the per-cycle step of a core awaiting a remote
// response: retry the injection if it met backpressure, and declare the
// op lost when its deadline expires.
func (m *Machine) stepRemote(c *Core) {
	c.StallRemote++
	if !c.rem.injected {
		if _, err := m.net.Inject(c.rem.net, c.tile, c.rem.dst, noc.Request, c.rem.tag, c.rem.payload); err == nil {
			c.rem.injected = true
		}
	}
	if m.RemoteTimeout > 0 && m.cycle >= c.rem.deadline {
		m.retryRemote(c)
	}
}

func (m *Machine) execute(t *Tile, c *Core) {
	if int(c.PC)+4 > c.priv.size {
		m.fault(c, "pc outside private SRAM")
		return
	}
	in := Decode(c.priv.load32(c.PC))
	next := c.PC + 4
	r := &c.Regs
	switch in.Op {
	case OpNop:
	case OpHalt:
		c.state = coreHalted
		m.coreStopped(c)
		c.Instret++
		return
	case OpLI:
		r[in.Rd] = uint32(in.Imm)
	case OpLUI:
		r[in.Rd] = uint32(in.Imm) << 16
	case OpOrLo:
		r[in.Rd] |= uint32(in.Imm) & 0xFFFF
	case OpAdd:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case OpSub:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case OpMul:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
	case OpAnd:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case OpOr:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case OpXor:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case OpShl:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 31)
	case OpShr:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 31)
	case OpSlt:
		r[in.Rd] = b2u(int32(r[in.Rs1]) < int32(r[in.Rs2]))
	case OpSltu:
		r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])
	case OpAddi:
		r[in.Rd] = r[in.Rs1] + uint32(in.Imm)
	case OpBeq:
		if r[in.Rs1] == r[in.Rs2] {
			next = c.PC + 4 + uint32(in.Imm)*4
		}
	case OpBne:
		if r[in.Rs1] != r[in.Rs2] {
			next = c.PC + 4 + uint32(in.Imm)*4
		}
	case OpBlt:
		if int32(r[in.Rs1]) < int32(r[in.Rs2]) {
			next = c.PC + 4 + uint32(in.Imm)*4
		}
	case OpBge:
		if int32(r[in.Rs1]) >= int32(r[in.Rs2]) {
			next = c.PC + 4 + uint32(in.Imm)*4
		}
	case OpJal:
		r[in.Rd] = c.PC + 4
		next = c.PC + 4 + uint32(in.Imm)*4
	case OpJr:
		next = r[in.Rs1]
	case OpCoreID:
		r[in.Rd] = m.globalID(c)
	case OpNCores:
		r[in.Rd] = uint32(m.Cfg.TotalCores())
	case OpLw, OpSw, OpAmoAdd, OpAmoMin:
		if !m.memOp(t, c, in) {
			return // retry same instruction next cycle (bank conflict)
		}
		c.Instret++
		c.PC = next
		return
	default:
		m.fault(c, "illegal opcode %d", int(in.Op))
		return
	}
	r[0] = 0 // r0 is hardwired zero
	c.Instret++
	c.PC = next
}

// memOp issues a memory instruction; it returns false when the access
// must retry next cycle (crossbar bank conflict).
func (m *Machine) memOp(t *Tile, c *Core, in Instr) bool {
	var addr uint32
	if in.Op == OpAmoAdd || in.Op == OpAmoMin {
		addr = c.Regs[in.Rs1]
	} else {
		addr = c.Regs[in.Rs1] + uint32(in.Imm)
	}
	if addr%4 != 0 {
		m.fault(c, "unaligned access %#x", addr)
		return true
	}
	switch m.amap.Region(addr) {
	case arch.RegionPrivate:
		// Atomics on private memory are pointless but harmless.
		m.access(c, in, &c.priv, addr, latPrivate)
		return true

	case arch.RegionLocalBank:
		bank := m.Cfg.GlobalBanksPerTile // the tile-local bank
		off := addr - arch.LocalBankBase
		return m.bankAccess(t, c, in, bank, off, latLocalBank)

	case arch.RegionGlobal:
		tile, bank, off, err := m.amap.GlobalTarget(addr)
		if err != nil {
			m.fault(c, "bad global address %#x: %v", addr, err)
			return true
		}
		if tile == c.tile {
			return m.bankAccess(t, c, in, bank, off, latOwnGlobal)
		}
		return m.remoteOp(c, in, addr)
	}
	m.fault(c, "unmapped address %#x", addr)
	return true
}

// bankAccess models the intra-tile crossbar: each bank serves one
// access per cycle; a conflicting core retries next cycle.
func (m *Machine) bankAccess(t *Tile, c *Core, in Instr, bank int, off uint32, lat int64) bool {
	if t.bankBusy[bank] == m.cycle {
		m.BankConflicts++
		c.RetryCycles++
		return false
	}
	t.bankBusy[bank] = m.cycle
	m.access(c, in, &t.mem, uint32(bank)*uint32(m.Cfg.BankBytes)+off, lat)
	return true
}

// access performs a fixed-latency memory instruction on the word at off
// and stalls the core for lat cycles; a load or atomic's old value lands
// in its destination register when the stall ends.
func (m *Machine) access(c *Core, in Instr, mem *pagedMem, off uint32, lat int64) {
	op, reg, data := memArgs(c, in)
	c.loadVal, c.loadReg = m.apply(mem, off, op, data), reg
	c.state, c.stallUntil = coreStalled, m.cycle+lat
}

// remoteOp issues a request packet for a remote global access. The
// destination is resolved through the live fault view (it may be the
// shadow host of a dead owner) and the first hop may be a relay tile
// when the kernel plans a detour.
func (m *Machine) remoteOp(c *Core, in Instr, addr uint32) bool {
	target, err := m.routeTarget(addr)
	if err != nil {
		m.fault(c, "remote access lost: %v", err)
		return true
	}
	dec, err := m.kernel.Decide(c.tile, target)
	if err != nil || !dec.Reachable {
		m.degr.markDegradedOnce(target)
		m.fault(c, "tile %v unreachable from %v", target, c.tile)
		return true
	}
	first := target
	if len(dec.Via) > 0 {
		// Multi-leg detour: send to the first relay; relay tiles spend
		// cycles forwarding (paper Section VI software workaround).
		first = dec.Via[0]
	}
	op, reg, data := memArgs(c, in)
	m.tagSeq++
	tag := op | uint32(c.idx)<<2 | m.tagSeq<<6
	c.rem.injected = false
	c.rem.net = dec.Request
	c.rem.dst = first
	c.rem.tag = tag
	c.rem.payload = uint64(addr)<<32 | uint64(data)
	c.rem.reg = reg
	c.rem.issuedAt = m.cycle
	c.rem.deadline = m.cycle + m.RemoteTimeout
	c.rem.attempts = 0
	c.state = coreRemote
	// Try to inject immediately.
	if _, err := m.net.Inject(dec.Request, c.tile, first, noc.Request, tag, c.rem.payload); err == nil {
		c.rem.injected = true
	}
	return true
}

// retryRemote handles an expired remote-op deadline: the request or its
// response was lost (dead router, broken link). The op is re-planned
// through the kernel against the current fault view and reissued with a
// fresh tag and an exponentially longer deadline; after RemoteRetries
// reissues the destination is marked degraded and the core faults with
// a structured error instead of stalling forever.
func (m *Machine) retryRemote(c *Core) {
	m.net.CountTimeout()
	m.degr.TimedOutOps++
	addr := uint32(c.rem.payload >> 32)
	if c.rem.attempts >= m.RemoteRetries {
		m.degr.ExhaustedOps++
		m.degr.markDegradedOnce(c.rem.dst)
		m.fault(c, "remote access %#x gave up after %d attempts (last hop %v, cycle %d)",
			addr, c.rem.attempts+1, c.rem.dst, m.cycle)
		return
	}
	target, err := m.routeTarget(addr)
	if err != nil {
		m.degr.ExhaustedOps++
		m.fault(c, "remote access lost: %v", err)
		return
	}
	dec, derr := m.kernel.Decide(c.tile, target)
	if derr != nil || !dec.Reachable {
		m.degr.ExhaustedOps++
		m.degr.markDegradedOnce(target)
		m.fault(c, "tile %v unreachable from %v after re-plan (attempt %d)", target, c.tile, c.rem.attempts+1)
		return
	}
	first := target
	if len(dec.Via) > 0 {
		first = dec.Via[0]
	}
	c.rem.attempts++
	m.degr.RetriedOps++
	// Fresh sequence bits so a late response to the lost attempt is
	// ignored as stale; op and core bits are preserved. Retries are
	// at-least-once: if the lost half was the response, a store or
	// atomic may apply twice — acceptable for degraded-mode runs.
	m.tagSeq++
	c.rem.tag = c.rem.tag&0x3F | m.tagSeq<<6
	c.rem.net = dec.Request
	c.rem.dst = first
	c.rem.injected = false
	// Exponential backoff plus deterministic jitter in [0, base/2):
	// cores that lost traffic to the same dead router would otherwise
	// all re-expire on the same cycle and re-collide forever. The
	// jitter is hashed from the op's identity, not drawn from a shared
	// RNG, so a replayed run stays bit-identical.
	base := m.RemoteTimeout << uint(c.rem.attempts)
	c.rem.deadline = m.cycle + base + backoffJitter(c.rem.tag, m.cycle, c.tile, c.idx, base/2)
	if _, err := m.net.Inject(dec.Request, c.tile, first, noc.Request, c.rem.tag, c.rem.payload); err == nil {
		c.rem.injected = true
	}
}

// backoffJitter maps a retried op's identity — reissue tag, current
// cycle, and the retrying core's tile and lane — to a jitter in
// [0, span) via a splitmix64 finalizer. Pure and seed-free: the same
// machine replayed from scratch retries on exactly the same
// cycles, preserving the engine's determinism contract, while distinct
// cores (or the same core on later attempts) spread apart.
func backoffJitter(tag uint32, cycle int64, tile geom.Coord, lane int, span int64) int64 {
	if span <= 0 {
		return 0
	}
	z := uint64(tag) ^ uint64(cycle)<<20 ^ uint64(uint32(tile.X))<<40 ^ uint64(uint32(tile.Y))<<52 ^ uint64(uint32(lane))<<8
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % uint64(span))
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
