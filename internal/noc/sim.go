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
	h    int32 // packet handle in Sim.pkts
	tile int32 // destination tile index
	port int32 // arrival port on that tile
}

// route is a packet handle's 12-byte routing record, all that switch
// allocation and traversal touch: Src, Dst and the hop count. int16
// holds any coordinate, since grid sides are capped at 1<<15.
type route struct {
	srcX, srcY, dstX, dstY int16
	hops                   int32
}

func (rt *route) src() geom.Coord { return geom.Coord{X: int(rt.srcX), Y: int(rt.srcY)} }
func (rt *route) dst() geom.Coord { return geom.Coord{X: int(rt.dstX), Y: int(rt.dstY)} }

// body is the rest of a packet but DeliveredAt, which ejection stamps.
// net is 0 or 1: Inject and Forward index the networks with it first.
type body struct {
	id, payload uint64
	injectedAt  int64
	kind        Kind
	tag         uint32
	net         uint8
}

// router is one tile's switch on one physical network: input-buffered,
// round-robin arbitration per output port, credit-checked forwarding.
// The input FIFOs, their credit counters and the round-robin pointers
// are slices into per-network slabs sized by the topology's port
// count. queued counts the packets across all its input FIFOs; it is
// > 0 exactly when the router's bit in meshNet.busy is set.
type router struct {
	at     geom.Coord
	idx    int32     // grid index, for O(1) neighbor-table lookups
	queued int32     // packets across all input FIFOs
	in     []pktFIFO // input FIFOs (ring buffers, FIFODepth each), one per port
	credit []int32   // this router's slots of meshNet.credit, one per port
	rrAt   []int     // round-robin pointer per output port
}

// grant is one switch-allocation decision: move the head packet of
// (r, inPort) to outPort.
type grant struct {
	r       *router
	inPort  int
	outPort int
}

// meshNet is one of the two physical networks. Beyond the routers it
// carries the in-flight link population, the per-slot credit counters
// and the reusable grant list that make stepNet allocation-free:
//
//   - wheel is a timing wheel of flights: bucket c % len(wheel) holds
//     the flights landing at cycle c, in launch order. It has
//     max(link latency) buckets: a cycle drains its own bucket before
//     it launches anything, so a flight of the longest latency can
//     reuse the bucket just drained, and every shorter one lands in a
//     bucket due earlier;
//   - busy has bit i set exactly when routers[i] holds a queued packet
//     (router.queued > 0), so switch allocation visits only occupied
//     routers. Injection, landing, traversal and kills write it;
//     allocation only reads it;
//   - credit[tile*np+port] counts that input FIFO's packets queued,
//     in flight toward it and granted toward it this cycle: a grant or
//     injection increments it, a dequeue decrements it, and a landing
//     leaves it unchanged. A dead tile's slots are not kept: a grant
//     toward a dead tile always goes ahead;
//   - grants is the reusable grant list;
//   - slab backs every input FIFO ring, FIFODepth handles per
//     (tile, port).
type meshNet struct {
	net     Network
	routers []*router
	slab    []int32
	wheel   [][]inFlight
	busy    []uint64
	credit  []int32
	grants  []grant
}

// enqueue pushes handle h into r's input FIFO at port and marks r
// busy. The caller has checked space and accounted the credit.
func (mn *meshNet) enqueue(r *router, port int, h int32) {
	r.in[port].push(h)
	r.queued++
	mn.busy[r.idx>>6] |= 1 << uint(r.idx&63)
}

// dequeue drops the head packet of r's input FIFO at port, returning
// its credit and clearing r's busy bit when it empties.
func (mn *meshNet) dequeue(r *router, port int) {
	r.in[port].drop()
	r.credit[port]--
	r.queued--
	if r.queued == 0 {
		mn.busy[r.idx>>6] &^= 1 << uint(r.idx&63)
	}
}

// addRouters instantiates the router of every tile i for which alive(i)
// holds, carving its FIFO rings out of mn.slab (which must hold
// FIFODepth handles per (tile, port)), its credit counters out of
// mn.credit, and its headers and round-robin pointers out of two more
// slabs — a handful of allocations per network keeps NewSim cheap
// inside Monte Carlo loops.
func (mn *meshNet) addRouters(g geom.Grid, np, depth int, alive func(i int) bool) {
	routers := make([]router, g.Size())
	fifos := make([]pktFIFO, g.Size()*np)
	rr := make([]int, g.Size()*np)
	for i := range routers {
		if !alive(i) {
			continue
		}
		r := &routers[i]
		*r = router{at: g.Coord(i), idx: int32(i), in: fifos[i*np : (i+1)*np],
			credit: mn.credit[i*np : (i+1)*np], rrAt: rr[i*np : (i+1)*np]}
		for p := range r.in {
			k := i*np + p
			r.in[p].buf = mn.slab[k*depth : (k+1)*depth]
		}
		mn.routers[i] = r
	}
}

// idle reports whether no router of the network holds a queued packet.
func (mn *meshNet) idle() bool {
	for _, w := range mn.busy {
		if w != 0 {
			return false
		}
	}
	return true
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

	cycle   int64
	nextID  uint64
	stats   SimStats
	linkUse [2][]int64 // per network: traversals of (tile, port) links
	// linkDown marks out-of-service (tile, port) links, shared by
	// both physical networks (a flapped inter-chiplet channel takes the
	// buses of both meshes with it). Packets queued behind a down link
	// wait; they are not lost.
	linkDown []bool

	// pkts and route are the packet arena: every packet in the system
	// (queued or in flight, both networks) is stored once, as a body and
	// a routing record under one int32 handle that FIFOs and flights
	// carry. free is the LIFO of released handles, so len(pkts)-len(free)
	// counts the live packets and Drained is O(1).
	pkts  []body
	route []route
	free  []int32

	// candBuf is the scratch buffer RoutingPolicy.Candidates writes
	// into (stepNet runs the two networks sequentially, so one buffer
	// serves both).
	candBuf [MaxPorts]int

	// OnDeliver, when set, observes every delivered packet (after stats
	// are updated). Used by the functional simulator to implement the
	// remote-memory protocol.
	OnDeliver func(Packet)

	delivered []Packet // retained when RetainDelivered is true
	// RetainDelivered keeps every delivered packet for inspection.
	RetainDelivered bool

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
	s := &Sim{grid: g, fm: fm, cfg: cfg, topo: topo, np: np, local: np - 1, Policy: topo.Policy()}
	if err := s.buildLinkTables(); err != nil {
		return nil, err
	}
	s.linkDown = make([]bool, g.Size()*np)
	for n := range s.linkUse {
		s.linkUse[n] = make([]int64, g.Size()*np)
	}
	wheelLen := 1
	for _, lat := range s.nbrLat {
		wheelLen = max(wheelLen, lat)
	}
	for n := range s.nets {
		mn := &meshNet{
			net:     Network(n),
			routers: make([]*router, g.Size()),
			slab:    make([]int32, g.Size()*np*cfg.FIFODepth),
			wheel:   make([][]inFlight, wheelLen),
			busy:    make([]uint64, (g.Size()+63)/64),
			credit:  make([]int32, g.Size()*np),
		}
		mn.addRouters(g, np, cfg.FIFODepth, func(i int) bool { return fm.Healthy(g.Coord(i)) })
		s.nets[n] = mn
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

// Delivered returns a copy of the retained packets (RetainDelivered
// must be set). Callers get their own slice, so the simulator's
// delivered-packet history cannot be corrupted through the return
// value.
func (s *Sim) Delivered() []Packet {
	out := make([]Packet, len(s.delivered))
	copy(out, s.delivered)
	return out
}

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
	r := s.nets[net].routers[s.grid.Index(src)]
	if r == nil {
		return 0, fmt.Errorf("noc: no router at source tile %v (killed at runtime)", src)
	}
	if r.in[s.local].len() >= s.cfg.FIFODepth {
		return 0, ErrBackpressure
	}
	s.nextID++
	s.nets[net].enqueue(r, s.local, s.take(Packet{
		ID: s.nextID, Kind: kind, Net: net, Src: src, Dst: dst,
		Tag: tag, Payload: payload, InjectedAt: s.cycle,
	}))
	r.credit[s.local]++ // a landing packet's credit was taken by its grant
	s.stats.Injected++
	return s.nextID, nil
}

// take stores p's body and route under the most recently freed handle.
func (s *Sim) take(p Packet) int32 {
	b := body{p.ID, p.Payload, p.InjectedAt, p.Kind, p.Tag, uint8(p.Net)}
	rt := route{int16(p.Src.X), int16(p.Src.Y), int16(p.Dst.X), int16(p.Dst.Y), int32(p.Hops)}
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.pkts[h], s.route[h] = b, rt
		return h
	}
	s.pkts = append(s.pkts, b)
	s.route = append(s.route, rt)
	return int32(len(s.pkts) - 1)
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
	r := s.nets[net].routers[s.grid.Index(at)]
	if r == nil {
		return fmt.Errorf("noc: no router at relay tile %v", at)
	}
	if r.in[s.local].len() >= s.cfg.FIFODepth {
		return ErrBackpressure
	}
	p.Net = net
	p.Dst = newDst
	s.nets[net].enqueue(r, s.local, s.take(p))
	r.credit[s.local]++
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
	dropped := 0
	killed := false
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		killed = true
		dropped += int(r.queued)
		for p := range r.in {
			for q := &r.in[p]; q.len() > 0; q.drop() {
				s.free = append(s.free, q.front())
			}
		}
		mn.routers[i] = nil
		mn.busy[i>>6] &^= 1 << uint(i&63)
	}
	if killed {
		s.stats.RoutersKilled++
		s.stats.Dropped += dropped
		s.stats.DroppedQueued += dropped
	}
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
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		for p := 0; p < s.np; p++ {
			if r.in[p].len() > 0 {
				s.pkts[r.in[p].front()].payload ^= mask
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
	for i := range *b {
		f := &(*b)[i]
		r := mn.routers[f.tile]
		if r == nil {
			// Link into a faulty tile: the packet is lost. The kernel's
			// fault-map routing must make this unreachable.
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			s.free = append(s.free, f.h)
			continue
		}
		mn.enqueue(r, int(f.port), f.h)
	}
	*b = (*b)[:0]
}

// allocate runs switch allocation for the busy routers in ascending
// index order: per router, per requested output port in ascending
// order, grant one input whose head packet requests that port,
// round-robin over inputs. Each head is routed once — Candidates is
// pure by the Topology contract and the allocator treats its result as
// a set — and folded into per-output input masks; only outputs some
// head requests are visited. A grant takes a credit of the downstream
// slot before movement so a FIFO never overfills within a cycle. The
// grant list is reused scratch, so this loop allocates nothing in
// steady state.
func (s *Sim) allocate(mn *meshNet, grants []grant) []grant {
	np, local, depth := s.np, s.local, int32(s.cfg.FIFODepth)
	cand := s.candBuf[:]
	for w, word := range mn.busy {
		for ; word != 0; word &= word - 1 {
			ri := w<<6 | bits.TrailingZeros64(word)
			r := mn.routers[ri]
			// Route every head once: req[out] is the set of inputs whose
			// head may take output out; outs is the union of requested
			// outputs.
			var req [MaxPorts]uint32
			var outs uint32
			for in := 0; in < np; in++ {
				q := &r.in[in]
				if q.len() == 0 {
					continue
				}
				rt := &s.route[q.front()]
				nc := s.Policy.Candidates(mn.net, rt.src(), rt.dst(), r.at, in, cand)
				for _, c := range cand[:nc] {
					if uint(c) < uint(np) {
						req[c] |= 1 << uint(in)
						outs |= 1 << uint(c)
					}
				}
			}
			var taken uint32 // inputs already granted this cycle
			base := ri * np
			for ; outs != 0; outs &= outs - 1 {
				out := bits.TrailingZeros32(outs)
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
						if mn.credit[slot] >= depth && mn.routers[ni] != nil {
							continue
						}
						mn.credit[slot]++
					}
				}
				// Round-robin: the first requesting input after the last
				// granted one, wrapping around.
				after := ins &^ (uint32(2)<<uint(r.rrAt[out]) - 1)
				if after == 0 {
					after = ins
				}
				in := bits.TrailingZeros32(after)
				grants = append(grants, grant{r, in, out})
				r.rrAt[out] = in
				taken |= 1 << uint(in)
			}
		}
	}
	return grants
}

// traverse applies the grants in list order: ejections update stats and
// fire OnDeliver, link crossings launch flights into the wheel bucket of
// their arrival cycle. List order is the delivery order, and appending
// to a bucket in launch order is the landing order. An ejected packet is
// assembled from its body and route, and its handle freed, before
// OnDeliver runs: the callback may inject, which can reuse the handle
// or grow the arena.
func (s *Sim) traverse(mn *meshNet, grants []grant) {
	now := int(s.cycle % int64(len(mn.wheel))) // this cycle's bucket
	for _, gr := range grants {
		h := gr.r.in[gr.inPort].front()
		mn.dequeue(gr.r, gr.inPort)
		if gr.outPort == s.local {
			b, rt := &s.pkts[h], &s.route[h]
			pkt := Packet{ID: b.id, Kind: b.kind, Net: Network(b.net), Src: rt.src(), Dst: rt.dst(),
				Tag: b.tag, Payload: b.payload, InjectedAt: b.injectedAt, DeliveredAt: s.cycle, Hops: int(rt.hops)}
			s.free = append(s.free, h)
			s.stats.Delivered++
			s.stats.TotalLatency += pkt.Latency()
			s.stats.TotalHops += pkt.Hops
			if pkt.Latency() > s.stats.MaxLatency {
				s.stats.MaxLatency = pkt.Latency()
			}
			if s.RetainDelivered {
				s.delivered = append(s.delivered, pkt)
			}
			if s.OnDeliver != nil {
				s.OnDeliver(pkt)
			}
			continue
		}
		lslot := int(gr.r.idx)*s.np + gr.outPort
		ni := s.nbrTile[lslot]
		if ni < 0 {
			s.stats.Dropped++
			s.stats.DroppedInFlight++ // left its router, lost in traversal
			s.free = append(s.free, h)
			continue
		}
		s.linkUse[mn.net][lslot]++
		at := now + s.nbrLat[lslot]
		if at >= len(mn.wheel) {
			at -= len(mn.wheel)
		}
		b := &mn.wheel[at]
		*b = append(*b, inFlight{h: h, tile: ni, port: int32(s.nbrPort[lslot])})
		s.route[h].hops++
	}
}

// Drained reports whether no packet remains anywhere in the network:
// every arena handle is free. RunUntilDrained calls it every cycle.
func (s *Sim) Drained() bool { return len(s.free) == len(s.pkts) }

// drainedScan is the reference O(routers) drain check the arena count
// replaced; tests cross-validate the two on every step of chaos runs.
func (s *Sim) drainedScan() bool {
	for _, mn := range s.nets {
		if mn.flightCount() > 0 {
			return false
		}
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			for p := 0; p < s.np; p++ {
				if r.in[p].len() > 0 {
					return false
				}
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
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			if n := int(r.queued); n > 0 {
				queued += n
				worst = append(worst, stuck{r.at, n})
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
