package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// This file pins the optimized cycle engine (ring-buffer FIFOs,
// incremental occupancy counters, reusable scratch, O(1) Drained) to
// the pre-optimization reference engine, copied here verbatim: per-cycle
// map allocations, re-sliced []Packet FIFOs, O(flights) credit scans and
// full-network drain scans. Both engines are driven through identical
// scenarios — uniform traffic, chaos (kills, link flaps, bit errors,
// relay forwards), adaptive routing, backpressure — and must produce
// bit-identical SimStats, delivered-packet streams and cycle counts.

// refRouter is the old slice-FIFO router.
type refRouter struct {
	at   geom.Coord
	in   [numPorts][]Packet
	rrAt [numPorts]int
}

// refFlight is the old in-flight record: an absolute arrival cycle and
// a coordinate destination, scanned every cycle.
type refFlight struct {
	pkt     Packet
	arrive  int64 // cycle it lands in the downstream FIFO
	dstTile geom.Coord
	dstPort int
}

// refMeshNet is the old per-network state.
type refMeshNet struct {
	net     Network
	routers []*refRouter
	flights []refFlight
}

// wantsPort reports whether out appears in the candidate list (the old
// allocator's per-output candidate scan).
func wantsPort(candidates []int, out int) bool {
	for _, c := range candidates {
		if c == out {
			return true
		}
	}
	return false
}

// dirOfPort converts a mesh direction-port index back to a geom.Dir.
func dirOfPort(p int) geom.Dir { return geom.Dir(p) }

// refSim is the pre-optimization engine. Its stepNet is a line-for-line
// copy of the old Sim.stepNet, kept as the behavioral oracle.
type refSim struct {
	grid geom.Grid
	fm   *fault.Map
	cfg  SimConfig
	nets [2]*refMeshNet

	Policy RoutingPolicy

	cycle    int64
	nextID   uint64
	stats    SimStats
	linkDown []bool
	// linkUse counts, per network, the packets that crossed each
	// (tile, direction) link.
	linkUse [2][]int64

	OnDeliver func(Packet)
}

func newRefSim(fm *fault.Map, cfg SimConfig) *refSim {
	g := fm.Grid()
	s := &refSim{grid: g, fm: fm, cfg: cfg, Policy: DoRPolicy{}}
	s.linkDown = make([]bool, g.Size()*geom.NumDirs)
	for n := range s.linkUse {
		s.linkUse[n] = make([]int64, g.Size()*geom.NumDirs)
	}
	for n := range s.nets {
		mn := &refMeshNet{net: Network(n), routers: make([]*refRouter, g.Size())}
		g.All(func(c geom.Coord) {
			if fm.Healthy(c) {
				mn.routers[g.Index(c)] = &refRouter{at: c}
			}
		})
		s.nets[n] = mn
	}
	return s
}

func (s *refSim) Cycle() int64    { return s.cycle }
func (s *refSim) Stats() SimStats { return s.stats }

func (s *refSim) Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error) {
	if err := validatePair(s.grid, src, dst); err != nil {
		return 0, err
	}
	if s.fm.Faulty(src) {
		return 0, fmt.Errorf("noc: cannot inject from faulty tile %v", src)
	}
	r := s.nets[net].routers[s.grid.Index(src)]
	if r == nil {
		return 0, fmt.Errorf("noc: no router at source tile %v (killed at runtime)", src)
	}
	if len(r.in[portLocal]) >= s.cfg.FIFODepth {
		return 0, ErrBackpressure
	}
	s.nextID++
	p := Packet{
		ID: s.nextID, Kind: kind, Net: net, Src: src, Dst: dst,
		Tag: tag, Payload: payload, InjectedAt: s.cycle,
	}
	r.in[portLocal] = append(r.in[portLocal], p)
	s.stats.Injected++
	return p.ID, nil
}

func (s *refSim) Forward(net Network, at, newDst geom.Coord, p Packet) error {
	if err := validatePair(s.grid, at, newDst); err != nil {
		return err
	}
	if s.fm.Faulty(at) {
		return fmt.Errorf("noc: cannot forward from faulty tile %v", at)
	}
	r := s.nets[net].routers[s.grid.Index(at)]
	if r == nil {
		return fmt.Errorf("noc: no router at relay tile %v", at)
	}
	if len(r.in[portLocal]) >= s.cfg.FIFODepth {
		return ErrBackpressure
	}
	p.Net = net
	p.Dst = newDst
	r.in[portLocal] = append(r.in[portLocal], p)
	s.stats.Forwarded++
	return nil
}

func (s *refSim) KillRouter(c geom.Coord) int {
	if !s.grid.In(c) {
		return 0
	}
	i := s.grid.Index(c)
	dropped := 0
	killed := false
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		killed = true
		for p := 0; p < numPorts; p++ {
			dropped += len(r.in[p])
		}
		mn.routers[i] = nil
	}
	if killed {
		s.stats.RoutersKilled++
		s.stats.Dropped += dropped
		s.stats.DroppedQueued += dropped
	}
	return dropped
}

func (s *refSim) SetLinkDown(c geom.Coord, d geom.Dir, down bool) {
	if !s.grid.In(c) {
		return
	}
	s.linkDown[s.grid.Index(c)*geom.NumDirs+int(d)] = down
	if far := c.Step(d); s.grid.In(far) {
		s.linkDown[s.grid.Index(far)*geom.NumDirs+int(d.Opposite())] = down
	}
}

func (s *refSim) CorruptPayload(c geom.Coord, mask uint64) bool {
	if !s.grid.In(c) || mask == 0 {
		return false
	}
	i := s.grid.Index(c)
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		for p := 0; p < numPorts; p++ {
			if len(r.in[p]) > 0 {
				r.in[p][0].Payload ^= mask
				s.stats.BitErrors++
				return true
			}
		}
	}
	return false
}

func (s *refSim) Step() {
	s.cycle++
	for _, mn := range s.nets {
		s.stepNet(mn)
	}
}

// stepNet is the old allocating switch-allocation loop, unchanged.
func (s *refSim) stepNet(mn *refMeshNet) {
	g := s.grid
	remaining := mn.flights[:0]
	for _, f := range mn.flights {
		if f.arrive > s.cycle {
			remaining = append(remaining, f)
			continue
		}
		r := mn.routers[g.Index(f.dstTile)]
		if r == nil {
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			continue
		}
		r.in[f.dstPort] = append(r.in[f.dstPort], f.pkt)
	}
	mn.flights = remaining

	type grant struct {
		r       *refRouter
		inPort  int
		outPort int
	}
	var grants []grant
	reserved := map[[2]int]int{}
	spaceFor := func(tile geom.Coord, port int) bool {
		r := mn.routers[g.Index(tile)]
		if r == nil {
			return true
		}
		key := [2]int{g.Index(tile), port}
		inQueue := len(r.in[port])
		inAir := 0
		for _, f := range mn.flights {
			if f.dstTile == tile && f.dstPort == port {
				inAir++
			}
		}
		return inQueue+inAir+reserved[key] < s.cfg.FIFODepth
	}
	candidates := func(p Packet, at geom.Coord, inPort int) []int {
		return portList(s.Policy.Route(mn.net, p.Src, p.Dst, at, inPort))
	}
	for _, r := range mn.routers {
		if r == nil {
			continue
		}
		var taken [numPorts]bool
		for out := 0; out < numPorts; out++ {
			if out != portLocal && s.linkDown[g.Index(r.at)*geom.NumDirs+out] {
				continue
			}
			for k := 1; k <= numPorts; k++ {
				inPort := (r.rrAt[out] + k) % numPorts
				if taken[inPort] {
					continue
				}
				q := r.in[inPort]
				if len(q) == 0 {
					continue
				}
				head := q[0]
				if !wantsPort(candidates(head, r.at, inPort), out) {
					continue
				}
				if out == portLocal {
					grants = append(grants, grant{r, inPort, out})
					r.rrAt[out] = inPort
					taken[inPort] = true
					break
				}
				nextTile := r.at.Step(dirOfPort(out))
				if !s.grid.In(nextTile) {
					grants = append(grants, grant{r, inPort, out})
					r.rrAt[out] = inPort
					taken[inPort] = true
					break
				}
				if !spaceFor(nextTile, int(dirOfPort(out).Opposite())) {
					continue
				}
				key := [2]int{g.Index(nextTile), int(dirOfPort(out).Opposite())}
				reserved[key]++
				grants = append(grants, grant{r, inPort, out})
				r.rrAt[out] = inPort
				taken[inPort] = true
				break
			}
		}
	}

	for _, gr := range grants {
		pkt := gr.r.in[gr.inPort][0]
		gr.r.in[gr.inPort] = gr.r.in[gr.inPort][1:]
		if gr.outPort == portLocal {
			pkt.DeliveredAt = s.cycle
			s.stats.Delivered++
			s.stats.TotalLatency += pkt.Latency()
			s.stats.TotalHops += pkt.Hops
			if pkt.Latency() > s.stats.MaxLatency {
				s.stats.MaxLatency = pkt.Latency()
			}
			if s.OnDeliver != nil {
				s.OnDeliver(pkt)
			}
			continue
		}
		next := gr.r.at.Step(dirOfPort(gr.outPort))
		if !s.grid.In(next) {
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			continue
		}
		pkt.Hops++
		s.linkUse[mn.net][g.Index(gr.r.at)*geom.NumDirs+gr.outPort]++
		mn.flights = append(mn.flights, refFlight{
			pkt:     pkt,
			arrive:  s.cycle + int64(s.cfg.LinkLatency),
			dstTile: next,
			dstPort: int(dirOfPort(gr.outPort).Opposite()),
		})
	}
}

func (s *refSim) Drained() bool {
	for _, mn := range s.nets {
		if len(mn.flights) > 0 {
			return false
		}
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			for p := 0; p < numPorts; p++ {
				if len(r.in[p]) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// engine is the surface both simulators expose to the scenario driver.
type engine interface {
	Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error)
	Forward(net Network, at, newDst geom.Coord, p Packet) error
	KillRouter(c geom.Coord) int
	SetLinkDown(c geom.Coord, d geom.Dir, down bool)
	CorruptPayload(c geom.Coord, mask uint64) bool
	Step()
	Drained() bool
	Cycle() int64
	Stats() SimStats
}

// scenario parametrizes one lockstep run.
type scenario struct {
	grid        geom.Grid
	faults      int
	seed        int64
	cycles      int // injection cycles before draining
	injectProb  float64
	injectN     int // injection attempts per cycle (0 = 1)
	oddEven     bool
	chaos       bool // kills, link flaps, bit errors
	forwardMod  uint32
	fifoDepth   int                          // 0 = DefaultSimConfig
	linkLatency int                          // 0 = DefaultSimConfig
	checkLiveFn func(t *testing.T, e engine) // optional per-step invariant

	// burst > 0 confines injection to the first burst cycles of every
	// burst+gap period, leaving idle gaps the network drains in.
	burst, gap int
	// hotKillAt > 0 steers three quarters of the injected packets to
	// one hot tile and kills that tile's router at cycle hotKillAt,
	// while packets are queued in it and flying toward it.
	hotKillAt int
	// respond answers every delivered request from inside OnDeliver,
	// as the machine's remote-memory protocol does: a response back to
	// the source on each network.
	respond bool
}

// recordDeliveries installs e's one OnDeliver hook. The hook appends
// every delivered packet to the returned log and, when respond is set,
// answers each delivered request as the respond scenario does.
func recordDeliveries(e engine, respond bool) *[]Packet {
	var pkts []Packet
	hook := func(p Packet) {
		pkts = append(pkts, p)
		if !respond || p.Kind != Request {
			return
		}
		e.Inject(p.Net.Complement(), p.Dst, p.Src, Response, p.Tag, p.Payload^1)
		e.Inject(p.Net, p.Dst, p.Src, Response, p.Tag, p.Payload^2)
	}
	switch x := e.(type) {
	case *Sim:
		x.OnDeliver = hook
	case *refSim:
		x.OnDeliver = hook
	}
	return &pkts
}

// runScenario drives one engine through the scenario and returns its
// outcome. Every random decision comes from a fresh rng with the
// scenario seed, so both engines see byte-identical event sequences.
func runScenario(t *testing.T, s scenario, e engine) (SimStats, []Packet, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	healthy := make([]geom.Coord, 0, s.grid.Size())
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	s.grid.All(func(c geom.Coord) {
		if fm.Healthy(c) {
			healthy = append(healthy, c)
		}
	})
	killed := map[geom.Coord]bool{}
	forwarded := map[uint64]bool{}
	var pendingFwd []Packet
	injected := 0
	hot := healthy[len(healthy)/2]
	delivered := recordDeliveries(e, s.respond)
	scanned := 0 // deliveries already considered for relay
	for cyc := 0; cyc < s.cycles; cyc++ {
		if s.hotKillAt > 0 && cyc == s.hotKillAt {
			killed[hot] = true
			e.KillRouter(hot)
		}
		// Chaos events at deterministic points.
		if s.chaos {
			if cyc%37 == 19 {
				victim := healthy[rng.Intn(len(healthy))]
				killed[victim] = true
				e.KillRouter(victim)
			}
			if cyc%23 == 7 {
				c := healthy[rng.Intn(len(healthy))]
				e.SetLinkDown(c, geom.Dir(rng.Intn(geom.NumDirs)), true)
			}
			if cyc%23 == 15 {
				c := healthy[rng.Intn(len(healthy))]
				e.SetLinkDown(c, geom.Dir(rng.Intn(geom.NumDirs)), false)
			}
			if cyc%11 == 5 {
				e.CorruptPayload(healthy[rng.Intn(len(healthy))], uint64(rng.Intn(255)+1))
			}
		}
		for k := 0; k < max(s.injectN, 1); k++ {
			if s.burst > 0 && cyc%(s.burst+s.gap) >= s.burst {
				break
			}
			if rng.Float64() >= s.injectProb {
				continue
			}
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			net := Network(rng.Intn(2))
			if s.hotKillAt > 0 && rng.Intn(4) != 0 {
				dst = hot
			}
			if !killed[src] {
				if _, err := e.Inject(net, src, dst, Request, uint32(cyc), uint64(cyc)*3); err == nil {
					injected++
				}
			}
		}
		// Relay a slice of delivered requests onward, as the machine's
		// kernel does for detours (retry parked packets on backpressure).
		retryFwd := pendingFwd[:0]
		for _, p := range pendingFwd {
			if killed[p.Dst] || s.fmFaulty(fm, p.Dst) {
				continue
			}
			relay := healthy[(int(p.ID)*7)%len(healthy)]
			if err := e.Forward(p.Net.Complement(), p.Dst, relay, p); err == ErrBackpressure {
				retryFwd = append(retryFwd, p)
			}
		}
		pendingFwd = retryFwd
		e.Step()
		if s.forwardMod > 0 {
			for _, p := range (*delivered)[scanned:] {
				if p.Kind == Request && p.Tag%s.forwardMod == 0 && !forwarded[p.ID] {
					forwarded[p.ID] = true
					pendingFwd = append(pendingFwd, p)
				}
			}
			scanned = len(*delivered)
		}
		if s.checkLiveFn != nil {
			s.checkLiveFn(t, e)
		}
	}
	// Chaos runs can wedge traffic behind down links; raise them all
	// (identically on both engines) so the drain phase terminates.
	if s.chaos {
		s.grid.All(func(c geom.Coord) {
			for d := 0; d < geom.NumDirs; d++ {
				e.SetLinkDown(c, geom.Dir(d), false)
			}
		})
	}
	// Drain, stepping manually so both engines count identical cycles.
	for i := 0; i < 20000 && !e.Drained(); i++ {
		e.Step()
		if s.checkLiveFn != nil {
			s.checkLiveFn(t, e)
		}
	}
	if !e.Drained() {
		t.Fatalf("engine %T did not drain", e)
	}
	return e.Stats(), *delivered, e.Cycle()
}

func (s scenario) fmFaulty(fm *fault.Map, c geom.Coord) bool { return fm.Faulty(c) }

// simConfig is the engine configuration the scenario runs under.
func (s scenario) simConfig() SimConfig {
	cfg := DefaultSimConfig()
	if s.fifoDepth > 0 {
		cfg.FIFODepth = s.fifoDepth
	}
	if s.linkLatency > 0 {
		cfg.LinkLatency = s.linkLatency
	}
	return cfg
}

// diffEngines runs the scenario on the optimized and reference engines
// and requires bit-identical stats, delivered streams and cycle counts.
func diffEngines(t *testing.T, s scenario) {
	t.Helper()
	cfg := s.simConfig()

	fmOpt := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	opt, err := NewSim(fmOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.oddEven {
		opt.Policy = OddEvenPolicy{}
	}
	optStats, optPkts, optCycles := runScenario(t, s, opt)

	fmRef := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	ref := newRefSim(fmRef, cfg)
	if s.oddEven {
		ref.Policy = OddEvenPolicy{}
	}
	refStats, refPkts, refCycles := runScenario(t, s, ref)
	requireSameRun(t, "optimized vs reference", optStats, optPkts, optCycles, refStats, refPkts, refCycles)
}

// requireSameRun fails unless two runs agree bit for bit: stats, cycle
// counts and delivered streams.
func requireSameRun(t *testing.T, label string, st SimStats, pkts []Packet, cycles int64, wantSt SimStats, wantPkts []Packet, wantCycles int64) {
	t.Helper()
	if st != wantSt || cycles != wantCycles {
		t.Fatalf("%s: stats/cycles diverge:\n  got  %+v (%d cycles)\n  want %+v (%d cycles)", label, st, cycles, wantSt, wantCycles)
	}
	if len(pkts) != len(wantPkts) {
		t.Fatalf("%s: delivered %d packets, want %d", label, len(pkts), len(wantPkts))
	}
	for i := range pkts {
		if pkts[i] != wantPkts[i] {
			t.Fatalf("%s: delivered packet %d diverges:\n  got  %+v\n  want %+v", label, i, pkts[i], wantPkts[i])
		}
	}
}

func TestEngineDifferentialUniform(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(12, 12), faults: 0, seed: 101,
		cycles: 1500, injectProb: 0.9,
	})
}

func TestEngineDifferentialFaultyMap(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(10, 10), faults: 7, seed: 202,
		cycles: 1200, injectProb: 0.8,
	})
}

func TestEngineDifferentialChaos(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(10, 10), faults: 3, seed: 303,
		cycles: 900, injectProb: 0.85, chaos: true, forwardMod: 4,
	})
}

func TestEngineDifferentialOddEven(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(9, 9), faults: 0, seed: 404,
		cycles: 1000, injectProb: 0.9, oddEven: true,
	})
}

// TestAdaptiveRoutingBalancesLinks: under transpose traffic the
// odd-even policy spreads load over more links and lowers the hottest
// link's traversal count relative to strict DoR. It counts traversals
// on the reference engine, which TestEngineDifferentialOddEven holds
// lockstep-equal to Sim.
func TestAdaptiveRoutingBalancesLinks(t *testing.T) {
	type result struct {
		maxLink   int64
		linksUsed int
	}
	run := func(policy RoutingPolicy) result {
		fm := fault.NewMap(geom.NewGrid(8, 8))
		s := newRefSim(fm, DefaultSimConfig())
		s.Policy = policy
		tag := uint32(0)
		for round := 0; round < 10; round++ {
			fm.Grid().All(func(src geom.Coord) {
				dst := geom.C(src.Y, src.X)
				if src == dst {
					return
				}
				tag++
				s.Inject(XY, src, dst, Request, tag, 0)
			})
			for range 2 {
				s.Step()
			}
		}
		for i := 0; i < 60000 && !s.Drained(); i++ {
			s.Step()
		}
		if !s.Drained() {
			t.Fatal("transpose traffic did not drain")
		}
		var r result
		for _, use := range s.linkUse {
			for _, n := range use {
				if n > 0 {
					r.linksUsed++
					r.maxLink = max(r.maxLink, n)
				}
			}
		}
		if r.linksUsed == 0 {
			t.Fatal("no link traffic recorded")
		}
		return r
	}
	dor := run(DoRPolicy{})
	oe := run(OddEvenPolicy{})
	if oe.maxLink >= dor.maxLink {
		t.Errorf("odd-even hottest link %d not below DoR %d", oe.maxLink, dor.maxLink)
	}
	if oe.linksUsed <= dor.linksUsed {
		t.Errorf("odd-even used %d links, DoR %d — adaptivity should spread", oe.linksUsed, dor.linksUsed)
	}
	t.Logf("hottest link %d -> %d traversals, links used %d -> %d", dor.maxLink, oe.maxLink, dor.linksUsed, oe.linksUsed)
}

func TestEngineDifferentialBackpressure(t *testing.T) {
	// Depth-1 FIFOs under near-saturating load: the credit path and
	// ErrBackpressure decisions must agree exactly.
	diffEngines(t, scenario{
		grid: geom.NewGrid(6, 6), faults: 0, seed: 505,
		cycles: 2000, injectProb: 1.0, fifoDepth: 1,
	})
}

// TestEngineDifferentialLinkLatency runs the chaos scenario at link
// latencies other than the default against the reference engine: the
// flight wheel has one bucket per cycle of the longest link, so
// latency 1 drives a single-bucket wheel that every cycle drains and
// refills.
func TestEngineDifferentialLinkLatency(t *testing.T) {
	for _, lat := range []int{1, 3} {
		diffEngines(t, scenario{
			grid: geom.NewGrid(8, 8), faults: 2, seed: 909,
			cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 4,
			linkLatency: lat,
		})
	}
}

// TestDrainedCounterMatchesScan cross-validates the O(1) live-packet
// count (arena handles not free) against the full-network scan it
// replaced, on every step of a chaos run (kills and drops are exactly
// where the accounting could slip).
func TestDrainedCounterMatchesScan(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 606,
		cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 3,
		checkLiveFn: checkDrainedScan,
	}
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	sim, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, s, sim)
}

// checkDrainedScan asserts the O(1) drained answer against the full
// network scan.
func checkDrainedScan(t *testing.T, e engine) {
	t.Helper()
	s := e.(*Sim)
	if s.Drained() != s.drainedScan() {
		t.Fatalf("cycle %d: Drained()=%v but scan says %v (live=%d)",
			s.Cycle(), s.Drained(), s.drainedScan(), s.store.live)
	}
}

// checkBusySet asserts the allocator's activity bookkeeping against a
// full scan: per network, a router's occupancy mask
// has bit p set exactly when its FIFO p is non-empty and its busy bit
// is set exactly when the mask is non-zero; dead routers hold nothing
// and bits past the grid are clear; between cycles, when no grant is
// pending, every live input slot's credit counter equals its FIFO
// length plus the flights the wheel holds toward it.
func checkBusySet(t *testing.T, e engine) {
	t.Helper()
	s := e.(*Sim)
	for _, mn := range s.nets {
		for ti := 0; ti < len(mn.busy)*64; ti++ {
			bit := mn.busy[ti>>6]>>uint(ti&63)&1 == 1
			if ti >= len(s.alive) || !s.alive[ti] {
				if bit {
					t.Fatalf("cycle %d %v: busy bit %d set on a dead or absent router", s.Cycle(), mn.net, ti)
				}
				if ti < len(s.alive) && (mn.occ[ti] != 0 || mn.queued(ti) != 0) {
					t.Fatalf("cycle %d %v: dead router %v holds %d packets (occupancy %b)",
						s.Cycle(), mn.net, s.at[ti], mn.queued(ti), mn.occ[ti])
				}
				continue
			}
			var occ uint16
			for p := 0; p < s.np; p++ {
				if mn.q[ti*s.np+p].n > 0 {
					occ |= 1 << uint(p)
				}
			}
			if mn.occ[ti] != occ || bit != (occ != 0) {
				t.Fatalf("cycle %d %v router %v: busy=%v occupancy %b, FIFOs occupy %b",
					s.Cycle(), mn.net, s.at[ti], bit, mn.occ[ti], occ)
			}
		}
		perSlot := make([]int32, len(mn.credit))
		for _, bucket := range mn.wheel {
			for _, f := range bucket {
				perSlot[int(f.tile)*s.np+int(f.port)]++
			}
		}
		for slot, n := range perSlot {
			if !s.alive[slot/s.np] {
				continue
			}
			queued := mn.q[slot].n
			if want := n + queued; mn.credit[slot] != want {
				t.Fatalf("cycle %d %v slot %d: %d queued + %d flights in the wheel, credit %d",
					s.Cycle(), mn.net, slot, queued, n, mn.credit[slot])
			}
		}
	}
}

// TestBusySetMatchesScan cross-validates the busy-router set, the
// per-router occupancy masks, the credit counters and the flight wheel
// against full scans on every step of chaos runs: kills and drops are
// where the incremental bookkeeping could slip, and a stale busy bit
// would silently skip a router's allocation. It runs under DoR and
// under odd-even, whose heads may request two outputs at once.
func TestBusySetMatchesScan(t *testing.T) {
	for name, s := range map[string]scenario{
		"dor": {grid: geom.NewGrid(8, 8), faults: 2, seed: 616,
			cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 3},
		"oddeven": {grid: geom.NewGrid(9, 9), faults: 2, seed: 424,
			cycles: 800, injectProb: 0.9, oddEven: true, chaos: true, forwardMod: 3},
	} {
		t.Run(name, func(t *testing.T) {
			s.checkLiveFn = checkBusySet
			fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
			sim, err := NewSim(fm, DefaultSimConfig())
			if err != nil {
				t.Fatal(err)
			}
			if s.oddEven {
				sim.Policy = OddEvenPolicy{}
			}
			st, _, _ := runScenario(t, s, sim)
			if st.RoutersKilled == 0 || st.Forwarded == 0 || st.Delivered == 0 {
				t.Fatalf("chaos scenario exercised too little: %+v", st)
			}
		})
	}
}

// idleGapScenario is traffic in bursts separated by idle gaps the
// network drains in. A hot tile draws most of the first burst and is
// killed at its end, with packets queued in it and flying toward it.
func idleGapScenario(grid geom.Grid, seed int64) scenario {
	return scenario{
		grid: grid, faults: 2, seed: seed,
		cycles: 900, injectProb: 0.9, injectN: 4, forwardMod: 3,
		burst: 60, gap: 240, hotKillAt: 58,
	}
}

// checkIdleGapExercised runs the scenario straight through on e and
// fails unless it did what it claims: the hot kill destroyed queued
// packets and dropped flights headed to the dead tile, and the network
// fully drained during the injection phase's gaps. It returns the run's
// outcome. Any per-step check the scenario carries still runs.
func checkIdleGapExercised(t *testing.T, name string, s scenario, e engine) (SimStats, []Packet, int64) {
	t.Helper()
	idle := 0
	inner := s.checkLiveFn
	s.checkLiveFn = func(t *testing.T, e engine) {
		if inner != nil {
			inner(t, e)
		}
		if e.Cycle() < int64(s.cycles) && e.Drained() {
			idle++
		}
	}
	st, pkts, cycles := runScenario(t, s, e)
	if st.RoutersKilled != 1 || st.DroppedQueued == 0 || st.DroppedInFlight == 0 {
		t.Fatalf("%s: hot kill did not hit queued and in-flight traffic: %+v", name, st)
	}
	if idle == 0 {
		t.Fatalf("%s: the network never drained during a gap", name)
	}
	return st, pkts, cycles
}

// TestEngineDifferentialIdleGaps pins the activity-driven allocator on
// the mesh against the reference engine through idle gaps, a kill that
// empties a router with flights still headed to it.
func TestEngineDifferentialIdleGaps(t *testing.T) {
	s := idleGapScenario(geom.NewGrid(8, 8), 707)
	checkIdleGapExercised(t, TopoMesh, s, newRefSim(
		fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed))), DefaultSimConfig()))
	diffEngines(t, s)
}
