package noc

import (
	"fmt"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Kernel models the system-software side of the network (paper Section
// VI): after assembly the faulty tiles are identified and stored in a
// fault map; the kernel then decides, per source-destination pair,
// which network carries the requests (responses use the complement),
// balances pairs across the two networks when both paths are clear,
// and — for the residual disconnected pairs — relays packets through
// one or more intermediate tiles. It plans on the topology the packets
// actually ride: XY and YX name the topology's two route networks, and
// a route counts as usable when every tile it enters is healthy.
//
// Packet ordering: all communication between one source-destination
// pair is pinned to a single network (and relay chain), so packets of
// a pair never race each other (the paper's in-order guarantee).
type Kernel struct {
	fm *fault.Map
	an *TopoAnalyzer
	// balance alternates assignments when both networks are usable so
	// the two are equally utilized.
	balance int
	// assigned memoizes pair decisions so a pair keeps its network for
	// the lifetime of the fault map (packet consistency).
	assigned map[[2]geom.Coord]Decision
}

// Decision is the kernel's routing decision for a pair.
type Decision struct {
	// Reachable is false when no route exists at all: no chain of clear
	// routes through healthy relay tiles joins the endpoints.
	Reachable bool
	// Request is the network carrying the first leg of requests;
	// responses retrace the legs on complementary networks.
	Request Network
	// Via lists relay tiles for multi-leg (detour) routing, in order;
	// empty for direct routes. Relay cores must spend cycles forwarding
	// (paper: acceptable because dual networks already fix most pairs,
	// and most remaining detours need a single relay).
	Via []geom.Coord
}

// NewKernel builds the routing policy for a topology over a fault map.
// The kernel keeps reading fm for endpoint health; call Refresh after
// mutating it.
func NewKernel(topo Topology, fm *fault.Map) *Kernel {
	return &Kernel{
		fm:       fm,
		an:       NewTopoAnalyzer(topo, fm),
		assigned: make(map[[2]geom.Coord]Decision),
	}
}

// Analyzer exposes the underlying path oracle.
func (k *Kernel) Analyzer() *TopoAnalyzer { return k.an }

// Refresh re-plans against the current state of the fault map: the
// path oracle is rebuilt in place and every memoized pair
// decision is discarded. Call it after marking tiles faulty at runtime
// — this is the kernel relearning the network after a mid-run failure
// (the paper's fault map is written once after assembly; a live system
// updates it whenever the wafer degrades). Network balancing state is
// kept so re-planned pairs continue to alternate.
func (k *Kernel) Refresh() {
	k.an.Reset(k.an.topo, k.fm)
	k.assigned = make(map[[2]geom.Coord]Decision)
}

// Decide returns (and memoizes) the routing decision for src -> dst.
func (k *Kernel) Decide(src, dst geom.Coord) (Decision, error) {
	if err := validatePair(k.an.Grid(), src, dst); err != nil {
		return Decision{}, err
	}
	if k.fm.Faulty(src) || k.fm.Faulty(dst) {
		return Decision{}, fmt.Errorf("noc: endpoint of %v->%v is faulty", src, dst)
	}
	key := [2]geom.Coord{src, dst}
	if d, ok := k.assigned[key]; ok {
		return d, nil
	}
	d := k.decide(src, dst)
	k.assigned[key] = d
	return d, nil
}

func (k *Kernel) decide(src, dst geom.Coord) Decision {
	xy := k.an.PathClear(XY, src, dst)
	yx := k.an.PathClear(YX, src, dst)
	switch {
	case xy && yx:
		// Both usable: alternate to keep the networks equally utilized.
		k.balance++
		return Decision{Reachable: true, Request: Network(k.balance % 2)}
	case xy:
		return Decision{Reachable: true, Request: XY}
	case yx:
		return Decision{Reachable: true, Request: YX}
	}
	// Both direct paths blocked: find the shortest relay chain. A
	// single intermediate tile (the paper's workaround) covers the
	// common case; heavily damaged neighborhoods may need more relays.
	if chain, ok := k.findRelayChain(src, dst); ok {
		net := XY
		if !k.an.PathClear(XY, src, chain[0]) {
			net = YX
		}
		return Decision{Reachable: true, Request: net, Via: chain}
	}
	return Decision{}
}

// findRelayChain searches breadth-first for the fewest-leg relay chain:
// graph nodes are healthy tiles, with an edge u->v whenever the
// topology's XY or YX route u->v is clear. On the mesh, adjacent healthy
// tiles always have a clear single-hop route, so reachability there
// equals 4-connected-component membership.
func (k *Kernel) findRelayChain(src, dst geom.Coord) ([]geom.Coord, bool) {
	g := k.an.Grid()
	prev := make([]int, g.Size())
	for i := range prev {
		prev[i] = -1
	}
	srcIdx := g.Index(src)
	prev[srcIdx] = srcIdx
	healthy := k.fm.HealthyCoords()
	queue := []geom.Coord{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			// Walk back, collecting intermediate relays (exclude the
			// endpoints).
			var rev []geom.Coord
			at := g.Index(dst)
			for at != srcIdx {
				at = prev[at]
				if at != srcIdx {
					rev = append(rev, g.Coord(at))
				}
			}
			chain := make([]geom.Coord, len(rev))
			for i := range rev {
				chain[i] = rev[len(rev)-1-i]
			}
			return chain, len(chain) > 0
		}
		for _, next := range healthy {
			i := g.Index(next)
			if prev[i] >= 0 || next == cur {
				continue
			}
			if k.an.PathClear(XY, cur, next) || k.an.PathClear(YX, cur, next) {
				prev[i] = g.Index(cur)
				queue = append(queue, next)
			}
		}
	}
	return nil, false
}

// PlanAll decides every ordered pair of healthy tiles and returns
// summary counts; used to quantify the detour ablation (how many of
// the dual-network residual disconnections relays repair).
func (k *Kernel) PlanAll() (reachableDirect, reachableViaDetour, unreachable int) {
	healthy := k.fm.HealthyCoords()
	for _, s := range healthy {
		for _, d := range healthy {
			if s == d {
				continue
			}
			dec, err := k.Decide(s, d)
			if err != nil {
				continue
			}
			switch {
			case !dec.Reachable:
				unreachable++
			case len(dec.Via) > 0:
				reachableViaDetour++
			default:
				reachableDirect++
			}
		}
	}
	return
}
