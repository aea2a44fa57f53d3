package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Port indices inside a mesh router: the four mesh directions plus the
// local inject/eject port. These are the mesh topology's layout; other
// topologies may populate more ports, but ports 0-3 always mean the
// four mesh directions wherever a topology wires them, and the local
// port is always the last one (Topology.Ports()-1).
const (
	portN = iota
	portE
	portS
	portW
	portLocal
	numPorts
)

// inFlight is a packet crossing an inter-chiplet link. Its arrival
// cycle is implied by the flight-wheel bucket holding it.
type inFlight struct {
	h    int32 // packet handle in the store
	tile int32 // destination tile index
	port int32 // arrival port on that tile
}

// grant is one switch-allocation decision: move the head packet of
// tile's input port in to output port out.
type grant struct{ tile, in, out int32 }

// meshNet is one of the two physical networks: every router's state
// as flat arrays, per input slot tile*np+port or per tile, and the
// in-flight link population. Each tile's router is input-buffered,
// arbitrates round-robin per output port and forwards only with
// credit. KillRouter empties a dead tile's FIFOs; no other state of a
// dead tile matters again.
//
//   - fifo and q are the input FIFO rings (fifo.go);
//   - credit[slot] counts that input FIFO's packets queued, in flight
//     toward it and granted toward it this cycle: a grant or
//     injection increments it, a dequeue decrements it, and a landing
//     leaves it unchanged. A dead tile's slots are not kept: a grant
//     toward a dead tile always goes ahead;
//   - rr[tile*np+out] is the input last granted output out, where
//     round-robin arbitration resumes;
//   - occ[tile] has bit p set exactly when the tile's FIFO p holds a
//     packet, and busy has bit tile set exactly when occ[tile] != 0, so
//     switch allocation visits only occupied routers and inputs.
//     Injection, landing, traversal and kills write them; allocation
//     only reads them;
//   - wheel is a timing wheel of flights: bucket c % len(wheel) holds
//     the flights landing at cycle c, in launch order. It has
//     max(link latency) buckets: a cycle drains its own bucket before
//     it launches anything, so a flight of the longest latency can
//     reuse the bucket just drained, and every shorter one lands in a
//     bucket due earlier;
//   - grants is the reusable grant list.
type meshNet struct {
	net       Network
	np, depth int
	fifo      []int32
	q         []ring
	credit    []int32
	rr        []uint8
	occ       []uint16
	busy      []uint64
	wheel     [][]inFlight
	grants    []grant
}

// newMeshNet allocates one network's router state for size tiles of np
// ports each, with depth-deep FIFOs and a wheelLen-bucket flight
// wheel: a handful of allocations per network keeps NewSim cheap
// inside Monte Carlo loops.
func newMeshNet(net Network, size, np, depth, wheelLen int) *meshNet {
	return &meshNet{
		net: net, np: np, depth: depth,
		fifo:   make([]int32, size*np*depth),
		q:      make([]ring, size*np),
		credit: make([]int32, size*np),
		rr:     make([]uint8, size*np),
		occ:    make([]uint16, size),
		busy:   make([]uint64, (size+63)/64),
		wheel:  make([][]inFlight, wheelLen),
	}
}

// queued returns the packets held in tile's input FIFOs.
func (mn *meshNet) queued(tile int) int {
	n := 0
	for _, q := range mn.q[tile*mn.np : (tile+1)*mn.np] {
		n += int(q.n)
	}
	return n
}

// flightCount returns the number of packets crossing links.
func (mn *meshNet) flightCount() int {
	n := 0
	for _, b := range mn.wheel {
		n += len(b)
	}
	return n
}

// Sim is the cycle-level simulator of the dual-network waferscale NoC.
// The link graph it steps comes from a Topology (NewSimTopology); the
// default is the reference dual-DoR mesh.
type Sim struct {
	grid geom.Grid
	fm   *fault.Map
	cfg  SimConfig
	topo Topology
	nets [2]*meshNet

	// np is the per-router port count (topo.Ports()); local is the
	// inject/eject port index, always np-1.
	np, local int

	// Neighbor tables, precomputed from the topology at construction so
	// the hot loop never calls Topology.Link: for link slot tile*np+port,
	// nbrTile is the destination tile index (-1 = no link there),
	// nbrPort the arrival port on that tile, and nbrLat the link flight
	// time (length x LinkLatency, at most the wheel length). They are
	// immutable.
	nbrTile []int32
	nbrPort []int8
	nbrLat  []int

	// Policy selects output ports; defaults to the topology's policy
	// (strict dimension-ordered routing on the mesh). Set to
	// OddEvenPolicy before injecting to run the future-work adaptive
	// scheme (paper footnote 4) — mesh topology only.
	Policy RoutingPolicy

	cycle  int64
	nextID uint64
	stats  SimStats
	// linkDown marks out-of-service (tile, port) links, shared by
	// both physical networks (a flapped inter-chiplet channel takes the
	// buses of both meshes with it). Packets queued behind a down link
	// wait; they are not lost.
	linkDown []bool

	// alive[tile] holds while the tile has a router: it is healthy in
	// the fault map and KillRouter has not removed it. at[tile] is its
	// coordinate, for routing. portMask has a bit per router port.
	alive    []bool
	at       []geom.Coord
	portMask uint16

	// store holds every packet in the system (store.go).
	store packetStore

	// OnDeliver, when set, observes every delivered packet (after stats
	// are updated). Used by the functional simulator to implement the
	// remote-memory protocol.
	OnDeliver func(Packet)

	// Shards is ignored; kept only because bench/ references it. ROADMAP
	// item 1's benchmark revision deletes it together with fig7Shards.
	Shards int
	// Workers is ignored; kept only because bench/ references it. ROADMAP
	// item 1's benchmark revision deletes it together with fig7Shards.
	Workers int
}

// NewSim builds a simulator of the reference dual-DoR mesh over a
// fault map — identical to NewSimTopology with a nil topology. Routers
// are instantiated only on healthy tiles; a packet forwarded into a
// faulty tile is dropped and counted (the kernel must prevent this by
// construction).
func NewSim(fm *fault.Map, cfg SimConfig) (*Sim, error) {
	return NewSimTopology(fm, cfg, nil)
}

// NewSimTopology builds a simulator over a fault map and a link graph
// (nil topology = the reference mesh). The topology's graph invariants
// — bidirectional links with consistent endpoints, a unique incoming
// link per (tile, port) — are validated here; a violating topology is
// rejected, never silently mis-simulated.
func NewSimTopology(fm *fault.Map, cfg SimConfig, topo Topology) (*Sim, error) {
	if fm == nil {
		return nil, fmt.Errorf("noc: nil fault map")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := fm.Grid()
	if g.W <= 0 || g.H <= 0 {
		return nil, fmt.Errorf("noc: fault map has empty grid %v (construct with fault.NewMap)", g)
	}
	if g.W > 1<<15 || g.H > 1<<15 {
		return nil, fmt.Errorf("noc: grid %v has a side longer than %d tiles", g, 1<<15)
	}
	if topo == nil {
		topo = MeshTopology(g)
	}
	if topo.Grid() != g {
		return nil, fmt.Errorf("noc: topology grid %v does not match fault map grid %v", topo.Grid(), g)
	}
	np := topo.Ports()
	if np < 2 || np > MaxPorts {
		return nil, fmt.Errorf("noc: topology %q has %d ports per router, want 2..%d", topo.Name(), np, MaxPorts)
	}
	s := &Sim{grid: g, fm: fm, cfg: cfg, topo: topo, np: np, local: np - 1, Policy: topo.Policy(),
		portMask: uint16(1<<np - 1), store: packetStore{free: -1}}
	if err := s.buildLinkTables(); err != nil {
		return nil, err
	}
	s.linkDown = make([]bool, g.Size()*np)
	wheelLen := 1
	for _, lat := range s.nbrLat {
		wheelLen = max(wheelLen, lat)
	}
	for n := range s.nets {
		s.nets[n] = newMeshNet(Network(n), g.Size(), np, cfg.FIFODepth, wheelLen)
	}
	s.alive = make([]bool, g.Size())
	s.at = make([]geom.Coord, g.Size())
	for i := range s.at {
		s.at[i] = g.Coord(i)
		s.alive[i] = fm.Healthy(s.at[i])
	}
	return s, nil
}

// buildLinkTables flattens the topology's link graph into the neighbor
// tables the hot loop indexes, validating the Topology contract along
// the way: links resolve inside the grid, are bidirectional with
// consistent endpoints and lengths, and no two links arrive at the
// same (tile, port), because each slot's credit counter and FIFO have
// one upstream router.
func (s *Sim) buildLinkTables() error {
	g, np, topo := s.grid, s.np, s.topo
	s.nbrTile = make([]int32, g.Size()*np)
	s.nbrPort = make([]int8, g.Size()*np)
	s.nbrLat = make([]int, g.Size()*np)
	for i := range s.nbrTile {
		s.nbrTile[i] = -1
	}
	incoming := make([]bool, g.Size()*np)
	var fail error
	g.All(func(c geom.Coord) {
		if fail != nil {
			return
		}
		i := g.Index(c)
		for p := 0; p < np-1; p++ {
			far, ap, ln, ok := topo.Link(c, p)
			if !ok {
				continue
			}
			switch {
			case !g.In(far):
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) leaves the grid (-> %v)", topo.Name(), c, p, far)
			case far == c:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) is a self-loop", topo.Name(), c, p)
			case ap < 0 || ap >= np-1:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) arrives on invalid port %d", topo.Name(), c, p, ap)
			case ln < 1:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) has non-positive length %d", topo.Name(), c, p, ln)
			}
			if fail != nil {
				return
			}
			rfar, rap, rln, rok := topo.Link(far, ap)
			if !rok || rfar != c || rap != p || rln != ln {
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) -> (%v, port %d) is not bidirectional", topo.Name(), c, p, far, ap)
				return
			}
			fi := g.Index(far)
			slot := fi*np + ap
			if incoming[slot] {
				fail = fmt.Errorf("noc: topology %q: two links arrive at (%v, port %d) — each input slot takes one upstream link", topo.Name(), far, ap)
				return
			}
			incoming[slot] = true
			s.nbrTile[i*np+p] = int32(fi)
			s.nbrPort[i*np+p] = int8(ap)
			s.nbrLat[i*np+p] = ln * s.cfg.LinkLatency
		}
	})
	return fail
}

// Cycle returns the current simulation cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// Stats returns a copy of the running statistics.
func (s *Sim) Stats() SimStats { return s.stats }

// Inject queues a packet at its source tile's local port on the given
// network. It fails if the source is faulty (at construction or killed
// at runtime) or the local FIFO is full (caller retries next cycle —
// modelling injection backpressure).
func (s *Sim) Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error) {
	if err := validatePair(s.grid, src, dst); err != nil {
		return 0, err
	}
	if s.fm.Faulty(src) {
		return 0, fmt.Errorf("noc: cannot inject from faulty tile %v", src)
	}
	i := s.grid.Index(src)
	if !s.alive[i] {
		return 0, fmt.Errorf("noc: no router at source tile %v (killed at runtime)", src)
	}
	if !s.localRoom(net, i) {
		return 0, ErrBackpressure
	}
	s.nextID++
	s.queueLocal(net, i, Packet{
		ID: s.nextID, Kind: kind, Net: net, Src: src, Dst: dst,
		Tag: tag, Payload: payload, InjectedAt: s.cycle,
	})
	s.stats.Injected++
	return s.nextID, nil
}

// localRoom reports whether tile's local input FIFO on net has space.
func (s *Sim) localRoom(net Network, tile int) bool {
	return int(s.nets[net].q[tile*s.np+s.local].n) < s.cfg.FIFODepth
}

// queueLocal stores p and queues it at tile's local input port on net,
// taking the slot's credit (a landing packet's credit was taken by its
// grant instead).
func (s *Sim) queueLocal(net Network, tile int, p Packet) {
	mn := s.nets[net]
	mn.enqueue(tile, s.local, s.store.take(p))
	mn.credit[tile*s.np+s.local]++
}

// ErrBackpressure reports a full injection FIFO.
var ErrBackpressure = fmt.Errorf("noc: injection FIFO full")

// Forward re-injects a delivered packet at a relay tile toward a new
// destination, preserving its identity (ID, Src, Tag, Payload,
// InjectedAt, accumulated Hops). This is the kernel's Section VI
// relay workaround exercised live: system software on the relay tile
// receives the packet at its local port and sends it on the next leg.
// The response still names the original Src, so the final destination
// answers the requester directly; a Src outside the grid is refused.
func (s *Sim) Forward(net Network, at, newDst geom.Coord, p Packet) error {
	if err := validatePair(s.grid, at, newDst); err != nil {
		return err
	}
	if !s.grid.In(p.Src) {
		return fmt.Errorf("noc: forwarded source %v outside %v", p.Src, s.grid)
	}
	if s.fm.Faulty(at) {
		return fmt.Errorf("noc: cannot forward from faulty tile %v", at)
	}
	i := s.grid.Index(at)
	if !s.alive[i] {
		return fmt.Errorf("noc: no router at relay tile %v", at)
	}
	if !s.localRoom(net, i) {
		return ErrBackpressure
	}
	p.Net = net
	p.Dst = newDst
	s.queueLocal(net, i, p)
	s.stats.Forwarded++
	return nil
}

// KillRouter removes the tile's router from both networks between
// cycles, modelling a tile dying at runtime. Packets queued inside the
// dead router are destroyed (counted in Dropped and DroppedQueued);
// packets already in flight toward it are dropped on arrival (counted
// in Dropped and DroppedInFlight), exactly like flights into a
// construction-time faulty tile. In-flight state
// elsewhere is untouched. Killing an already-dead or out-of-grid tile
// is a no-op. It returns the number of queued packets destroyed.
func (s *Sim) KillRouter(c geom.Coord) int {
	if !s.grid.In(c) {
		return 0
	}
	i := s.grid.Index(c)
	if !s.alive[i] {
		return 0
	}
	s.alive[i] = false
	dropped := 0
	for _, mn := range s.nets {
		for p := 0; p < s.np; p++ {
			for ; mn.q[i*s.np+p].n > 0; dropped++ {
				s.store.release(mn.dequeue(i, p))
			}
		}
	}
	s.stats.RoutersKilled++
	s.stats.Dropped += dropped
	s.stats.DroppedQueued += dropped
	return dropped
}

// SetLinkDown marks the inter-chiplet link at (tile, dir) out of (or
// back in) service on both physical networks. Ports 0-3 are the mesh
// directions on every topology that wires them; on topologies where
// the tile has no such link the flag is recorded but can never block a
// grant. Both endpoints of an existing link are updated, so traffic is
// blocked in either direction. Down links exert backpressure: the
// switch allocator withholds grants over them and packets wait in the
// upstream FIFOs.
func (s *Sim) SetLinkDown(c geom.Coord, d geom.Dir, down bool) {
	s.SetPortDown(c, int(d), down)
}

// SetPortDown is the generalized SetLinkDown: it addresses any link
// port of the topology (express links, CMesh hub spokes, vertical
// links), so the fault-injection layer can kill topology-specific
// links too. The local port cannot be taken down.
func (s *Sim) SetPortDown(c geom.Coord, port int, down bool) {
	if !s.grid.In(c) || port < 0 || port >= s.local {
		return
	}
	i := s.grid.Index(c)
	s.linkDown[i*s.np+port] = down
	if ni := s.nbrTile[i*s.np+port]; ni >= 0 {
		s.linkDown[int(ni)*s.np+int(s.nbrPort[i*s.np+port])] = down
	}
}

// CorruptPayload XORs mask into the payload of the first packet found
// buffered at tile c (scanning networks, then ports, FIFO heads first)
// — a deterministic model of a transient link bit error. It reports
// whether a packet was hit; false means the error struck an idle
// buffer and is harmless.
func (s *Sim) CorruptPayload(c geom.Coord, mask uint64) bool {
	if !s.grid.In(c) || mask == 0 {
		return false
	}
	i := s.grid.Index(c)
	if !s.alive[i] {
		return false
	}
	for _, mn := range s.nets {
		for p := 0; p < s.np; p++ {
			if slot := i*s.np + p; mn.q[slot].n > 0 {
				s.store.body(mn.fifo[mn.front(slot)]).payload ^= mask
				s.stats.BitErrors++
				return true
			}
		}
	}
	return false
}

// CountTimeout records a remote-op deadline expiry observed by the
// machine layer, so the network statistics tell the whole chaos story.
func (s *Sim) CountTimeout() { s.stats.Timeouts++ }

// Step advances the simulation one cycle.
func (s *Sim) Step() {
	s.cycle++
	for _, mn := range s.nets {
		s.stepNet(mn)
	}
}

// Close is a no-op; kept only because bench/ references it. ROADMAP
// item 1's benchmark revision deletes it together with fig7Shards.
func (s *Sim) Close() {}

// stepNet advances one network one cycle: land, allocate, traverse.
func (s *Sim) stepNet(mn *meshNet) {
	s.landFlights(mn)
	mn.grants = s.allocate(mn, mn.grants[:0])
	s.traverse(mn, mn.grants)
}

// landFlights lands the flights whose link delay elapsed this cycle:
// the wheel bucket of the current cycle, in launch order. A landing
// packet keeps the credit its grant took.
func (s *Sim) landFlights(mn *meshNet) {
	b := &mn.wheel[s.cycle%int64(len(mn.wheel))]
	for _, f := range *b {
		if !s.alive[f.tile] {
			// Link into a faulty tile: the packet is lost. The kernel's
			// fault-map routing must make this unreachable.
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			s.store.release(f.h)
			continue
		}
		mn.enqueue(int(f.tile), int(f.port), f.h)
	}
	*b = (*b)[:0]
}

// allocate runs switch allocation for the busy routers in ascending
// tile order: per router, per requested output port in ascending
// order, grant one input whose head packet requests that port,
// round-robin over inputs. Each head is routed once per cycle from its
// routing record alone, and only outputs some head requests are
// visited. A grant takes a credit of the
// downstream slot before movement so a FIFO never overfills within a
// cycle. The grant list is reused scratch, so this loop allocates
// nothing in steady state.
func (s *Sim) allocate(mn *meshNet, grants []grant) []grant {
	np, local, depth := s.np, s.local, int32(s.cfg.FIFODepth)
	for w, word := range mn.busy {
		for ; word != 0; word &= word - 1 {
			ti := w<<6 | bits.TrailingZeros64(word)
			base := ti * np
			// Route every head once: req[out] is the set of inputs whose
			// head may take output out; outs is the union of requested
			// outputs. Ports the topology lacks are dropped.
			var req [MaxPorts]uint16
			var outs uint16
			for occ := mn.occ[ti]; occ != 0; occ &= occ - 1 {
				in := bits.TrailingZeros16(occ)
				rt := s.store.rt(mn.fifo[mn.front(base+in)])
				ports := s.Policy.Route(mn.net, rt.src(), rt.dst(), s.at[ti], in).mask & s.portMask
				outs |= ports
				for ; ports != 0; ports &= ports - 1 {
					req[bits.TrailingZeros16(ports)] |= 1 << uint(in)
				}
			}
			var taken uint16 // inputs already granted this cycle
			for ; outs != 0; outs &= outs - 1 {
				out := bits.TrailingZeros16(outs)
				if out != local && s.linkDown[base+out] {
					continue // link out of service: packets wait upstream
				}
				ins := req[out] &^ taken
				if ins == 0 {
					continue
				}
				// Credit depends only on the output's downstream slot, so
				// it is checked once: without it no input gets this port.
				// Ejection and a dead downstream tile (the packet drops on
				// arrival) always have room; a route off the link graph
				// (ni < 0, defensive — in-grid destinations never produce
				// one) is granted and dropped by traverse.
				if out != local {
					if ni := s.nbrTile[base+out]; ni >= 0 {
						slot := int(ni)*np + int(s.nbrPort[base+out])
						if mn.credit[slot] >= depth && s.alive[ni] {
							continue
						}
						mn.credit[slot]++
					}
				}
				// Round-robin: the first requesting input after the last
				// granted one, wrapping around.
				after := ins &^ (uint16(2)<<mn.rr[base+out] - 1)
				if after == 0 {
					after = ins
				}
				in := bits.TrailingZeros16(after)
				grants = append(grants, grant{int32(ti), int32(in), int32(out)})
				mn.rr[base+out] = uint8(in)
				taken |= 1 << uint(in)
			}
		}
	}
	return grants
}

// traverse applies the grants in list order: ejections update stats and
// fire OnDeliver, link crossings launch flights into the wheel bucket of
// their arrival cycle. List order
// is the delivery order, and appending to a bucket in launch order is
// the landing order. An ejected packet is assembled from its body and
// route, and its handle freed, before OnDeliver runs: the callback may
// inject, which can reuse the handle or grow the store.
func (s *Sim) traverse(mn *meshNet, grants []grant) {
	now := int(s.cycle % int64(len(mn.wheel))) // this cycle's bucket
	for _, gr := range grants {
		h := mn.dequeue(int(gr.tile), int(gr.in))
		if int(gr.out) == s.local {
			b, rt := s.store.body(h), s.store.rt(h)
			pkt := Packet{ID: b.id, Kind: b.kind, Net: Network(b.net), Src: rt.src(), Dst: rt.dst(),
				Tag: b.tag, Payload: b.payload, InjectedAt: b.injectedAt, DeliveredAt: s.cycle, Hops: int(rt.hops)}
			s.store.release(h)
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
		lslot := int(gr.tile)*s.np + int(gr.out)
		ni := s.nbrTile[lslot]
		if ni < 0 {
			s.stats.Dropped++
			s.stats.DroppedInFlight++ // left its router, lost in traversal
			s.store.release(h)
			continue
		}
		at := now + s.nbrLat[lslot]
		if at >= len(mn.wheel) {
			at -= len(mn.wheel)
		}
		b := &mn.wheel[at]
		*b = append(*b, inFlight{h: h, tile: ni, port: int32(s.nbrPort[lslot])})
		s.store.rt(h).hops++
	}
}

// Drained reports whether no packet remains anywhere in the network:
// the store holds no live handle. RunUntilDrained calls it every cycle.
func (s *Sim) Drained() bool { return s.store.live == 0 }

// drainedScan is the reference O(routers) drain check the live count
// replaced; tests cross-validate the two on every step of chaos runs.
func (s *Sim) drainedScan() bool {
	for _, mn := range s.nets {
		if mn.flightCount() > 0 {
			return false
		}
		for i, ok := range s.alive {
			if ok && mn.queued(i) > 0 {
				return false
			}
		}
	}
	return true
}

// RunUntilDrained steps until the network empties or maxCycles elapse;
// it returns an error on timeout, which in a deadlock-free network with
// finite traffic indicates a bug (or, in a chaos run, a down link or
// dead router wedging traffic). The error carries a congestion report —
// in-flight population and the most-backed-up routers per network — so
// hangs are debuggable without a debugger.
func (s *Sim) RunUntilDrained(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if s.Drained() {
			return nil
		}
		s.Step()
	}
	if s.Drained() {
		return nil
	}
	return fmt.Errorf("noc: network not drained after %d cycles (possible deadlock): %s",
		maxCycles, s.CongestionReport(4))
}

// CongestionReport summarizes where packets are stuck: per network, the
// in-flight link population, the number of routers holding packets, the
// total queued, and the topK routers by queue depth with coordinates.
// topK <= 0 lists no per-router detail; topK beyond the router count
// lists every congested router.
func (s *Sim) CongestionReport(topK int) string {
	if topK < 0 {
		topK = 0
	}
	out := ""
	for _, mn := range s.nets {
		type stuck struct {
			at geom.Coord
			n  int
		}
		var worst []stuck
		queued := 0
		for i, ok := range s.alive {
			if n := mn.queued(i); ok && n > 0 {
				queued += n
				worst = append(worst, stuck{s.at[i], n})
			}
		}
		sort.Slice(worst, func(i, j int) bool {
			if worst[i].n != worst[j].n {
				return worst[i].n > worst[j].n
			}
			return s.grid.Index(worst[i].at) < s.grid.Index(worst[j].at)
		})
		if out != "" {
			out += "; "
		}
		out += fmt.Sprintf("%v: %d in flight, %d queued in %d routers",
			mn.net, mn.flightCount(), queued, len(worst))
		if len(worst) > topK {
			worst = worst[:topK]
		}
		for _, w := range worst {
			out += fmt.Sprintf(" %v×%d", w.at, w.n)
		}
	}
	return out
}
