package noc

import (
	"context"
	"math/bits"
	"math/rand"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TopoAnalyzer answers the same two-way connectivity questions as
// Analyzer for an arbitrary Topology. The mesh analyzer's prefix-sum
// trick needs DoR row/column route shapes; a generic topology instead
// gets its route-clear relation built from the faulty tiles outward.
// Routes toward one destination form an in-tree (the same property the
// analytical model's in-tree build exploits), and a route is blocked
// exactly when its source is a descendant of a faulty tile in that
// tree. So per (network, healthy destination) Reset starts from the
// healthy-tile set and walks backwards from every faulty tile,
// clearing the tiles whose next hop leads into an already blocked
// one: the build costs O(blocked pairs x ports) routing decisions
// instead of O(tiles^2), and every PathClear query afterwards is O(1).
//
// The backward walk relies on the routing contract on Topology: the
// next hop depends only on (network, current tile, destination) and
// the local port is chosen only at the destination.
//
// Fault semantics match the cycle engine: a route is clear iff every
// tile it enters (source and destination included) is healthy; express
// links fly over intermediate tiles without entering their routers, so
// an express route can be clear where the unit-mesh route is not.
type TopoAnalyzer struct {
	topo Topology
	pol  RoutingPolicy
	grid geom.Grid
	// words is the length of one relation row in uint64 words.
	words int
	// clear[net] is destination-major, one bit per ordered pair: row d
	// (words d*words through (d+1)*words-1) has bit s set iff the route
	// s->d enters only healthy tiles. A faulty destination's row is
	// empty. One bit per pair keeps a 32x32 analyzer at 256 KiB.
	clear [2][]uint64

	// Per-(topology, grid) tables, rebuilt only when either changes.
	coords []geom.Coord
	// nbr[i*ports+p] is the tile at the far end of tile i's port p, or
	// -1 where the port carries no link.
	nbr   []int32
	ports int
	// lines[y*words:] masks row y of the grid; lines[(H+x)*words:]
	// masks column x.
	lines []uint64

	// Per-map state and build scratch, retained across Reset so a
	// steady-state trial allocates nothing.
	healthy      []uint64 // bitset of healthy tiles
	healthyCount int
	faulty       []int32
	masked       []int32  // healthy tiles with a blocked out-port
	stamp        []uint32 // stamp[i] == epoch: i already blocked
	epoch        uint32
	stack        []int32
}

// NewTopoAnalyzer builds the route-clear relation for a topology over a
// fault map. The analyzer snapshots the map: later mutations are not
// reflected.
func NewTopoAnalyzer(topo Topology, fm *fault.Map) *TopoAnalyzer {
	a := &TopoAnalyzer{}
	a.Reset(topo, fm)
	return a
}

// Grid returns the analyzed array shape.
func (a *TopoAnalyzer) Grid() geom.Grid { return a.grid }

// Reset rebuilds the relation for a (possibly different) fault map on
// the same or a different topology, reusing the backing arrays and the
// resolved link table whenever the topology and grid are unchanged —
// the Monte Carlo loop calls this once per trial map. The zero
// TopoAnalyzer is a valid Reset target.
func (a *TopoAnalyzer) Reset(topo Topology, fm *fault.Map) { a.reset(topo, fm, nil) }

// reset is Reset with directed out-port faults as well: where blocked
// is non-nil, bit p of blocked[i] set means healthy tile i cannot send
// through its port p, so a route is clear iff it also departs no tile
// through a blocked port. A dead memory chiplet is such a fault on its
// tile's N and S ports. The local port must never be blocked, which
// keeps ejection exempt.
func (a *TopoAnalyzer) reset(topo Topology, fm *fault.Map, blocked []uint16) {
	g := fm.Grid()
	if a.grid != g || a.topo == nil || a.topo.Name() != topo.Name() {
		a.resize(topo, g)
	}
	size, w := g.Size(), a.words
	clear(a.healthy)
	a.faulty, a.masked = a.faulty[:0], a.masked[:0]
	for i, c := range a.coords {
		if fm.Faulty(c) {
			a.faulty = append(a.faulty, int32(i))
		} else {
			a.healthy[i>>6] |= 1 << uint(i&63)
			if blocked != nil && blocked[i] != 0 {
				a.masked = append(a.masked, int32(i))
			}
		}
	}
	a.healthyCount = size - len(a.faulty)

	local := a.ports - 1
	for n := 0; n < 2; n++ {
		net := Network(n)
		for d := 0; d < size; d++ {
			row := a.clear[n][d*w : (d+1)*w]
			if a.healthy[d>>6]>>uint(d&63)&1 == 0 {
				clear(row)
				continue
			}
			copy(row, a.healthy)
			if len(a.faulty) == 0 && len(a.masked) == 0 {
				continue
			}
			// Every faulty tile is blocked, and so is every healthy tile
			// whose next hop toward d leaves through a blocked port; a
			// tile whose next hop toward d is a blocked tile is blocked
			// too. Each route from a descendant of a port-blocked tile
			// leaves it through that same port (the next hop depends
			// only on the network, the tile and d), so the walk needs
			// no per-port state.
			dst := a.coords[d]
			a.nextEpoch()
			a.stack = a.stack[:0]
			for _, f := range a.faulty {
				a.stamp[f] = a.epoch
				a.stack = append(a.stack, f)
			}
			for _, v := range a.masked {
				at := a.coords[v]
				if p := a.pol.Route(net, at, dst, at, local).First(); p >= 0 && blocked[v]>>uint(p)&1 != 0 {
					a.stamp[v] = a.epoch
					row[v>>6] &^= 1 << uint(v&63)
					a.stack = append(a.stack, v)
				}
			}
			for len(a.stack) > 0 {
				u := a.stack[len(a.stack)-1]
				a.stack = a.stack[:len(a.stack)-1]
				for _, v := range a.nbr[int(u)*a.ports : int(u)*a.ports+local] {
					if v < 0 || a.stamp[v] == a.epoch {
						continue
					}
					at := a.coords[v]
					if p := a.pol.Route(net, at, dst, at, local).First(); p < 0 ||
						p == local || a.nbr[int(v)*a.ports+p] != u {
						continue
					}
					a.stamp[v] = a.epoch
					row[v>>6] &^= 1 << uint(v&63)
					a.stack = append(a.stack, v)
				}
			}
		}
	}
}

// resize (re)allocates every per-grid slice and resolves the
// topology's links into the neighbour table.
func (a *TopoAnalyzer) resize(topo Topology, g geom.Grid) {
	size := g.Size()
	w := (size + 63) / 64
	a.topo, a.pol, a.grid, a.words, a.ports = topo, topo.Policy(), g, w, topo.Ports()
	a.clear[XY] = make([]uint64, size*w)
	a.clear[YX] = make([]uint64, size*w)
	a.coords = make([]geom.Coord, size)
	a.nbr = make([]int32, size*a.ports)
	a.lines = make([]uint64, (g.H+g.W)*w)
	a.healthy = make([]uint64, w)
	a.stamp = make([]uint32, size)
	a.epoch = 0
	for i := range a.coords {
		c := g.Coord(i)
		a.coords[i] = c
		for p := 0; p < a.ports; p++ {
			a.nbr[i*a.ports+p] = -1
			if far, _, _, ok := topo.Link(c, p); ok {
				a.nbr[i*a.ports+p] = int32(g.Index(far))
			}
		}
		a.lines[c.Y*w+i>>6] |= 1 << uint(i&63)
		a.lines[(g.H+c.X)*w+i>>6] |= 1 << uint(i&63)
	}
}

// nextEpoch starts a fresh visit generation, clearing the stamps on
// the rare wrap-around so no stale stamp can match.
func (a *TopoAnalyzer) nextEpoch() {
	a.epoch++
	if a.epoch == 0 {
		clear(a.stamp)
		a.epoch = 1
	}
}

// PathClear reports whether the topology's route from src to dst on the
// given network passes only healthy tiles (endpoints included).
func (a *TopoAnalyzer) PathClear(net Network, src, dst geom.Coord) bool {
	s := a.grid.Index(src)
	return a.clear[net][a.grid.Index(dst)*a.words+s>>6]>>uint(s&63)&1 != 0
}

// AllPairs aggregates two-way connectivity over all unordered pairs of
// distinct healthy tiles — one Fig. 6 sample on this topology. For
// each healthy d it counts the pairs (s, d) with healthy s < d by
// popcounts over relation row d: a pair is dual-disconnected where
// neither row xy[d] nor yx[d] holds s, and single-disconnected where
// xy[d] lacks s. The remaining single-disconnected pairs, a clear
// request whose response is blocked, are found by walking the few zero
// bits of each xy row above the diagonal — no transpose is built.
func (a *TopoAnalyzer) AllPairs() PairStats {
	st := PairStats{HealthyTiles: a.healthyCount}
	w := a.words
	xy, yx := a.clear[XY], a.clear[YX]
	for d, c := range a.coords {
		dw, db := d>>6, uint(d&63)
		if a.healthy[dw]>>db&1 == 0 {
			continue
		}
		rowMask := a.lines[c.Y*w : (c.Y+1)*w]
		colMask := a.lines[(a.grid.H+c.X)*w : (a.grid.H+c.X+1)*w]
		xyd, yxd := xy[d*w:(d+1)*w], yx[d*w:(d+1)*w]
		// Sources below d: pairs (s, d) with s < d.
		for k := 0; k <= dw; k++ {
			m := a.healthy[k]
			if k == dw {
				m &= 1<<db - 1
			}
			dual := m &^ (xyd[k] | yxd[k])
			st.Pairs += bits.OnesCount64(m)
			st.DisconnectedSingle += bits.OnesCount64(m &^ xyd[k])
			st.DisconnectedDual += bits.OnesCount64(dual)
			st.DualSameRowCol += bits.OnesCount64(dual & (rowMask[k] | colMask[k]))
		}
		// Pairs (d, e) with e > d whose response e->d is blocked (a zero
		// in row d) but whose request d->e is clear: the loop above, run
		// for e, counts only the blocked requests.
		for k := dw; k < w; k++ {
			z := a.healthy[k] &^ xyd[k]
			if k == dw {
				z &= ^uint64(0) << db << 1
			}
			for ; z != 0; z &= z - 1 {
				e := k<<6 | bits.TrailingZeros64(z)
				if xy[e*w+dw]>>db&1 != 0 {
					st.DisconnectedSingle++
				}
			}
		}
	}
	return st
}

// TopoFig6SweepCtx is Fig6SweepCtx generalized over topologies: the
// percentage of disconnected pairs per fault count, averaged over
// random fault maps, on the named topology's link graph ("" = mesh).
// The mesh delegates to Fig6SweepCtx, so mesh results are
// bit-identical to it at any worker count; other topologies use
// TopoAnalyzer with the same trial maps (same grid, seed and trial
// derivation), so curves are comparable across topologies point by
// point. A trial costs one TopoAnalyzer Reset — O(blocked pairs x
// ports) routing decisions into a destination-major bit relation, 2
// bits per ordered pair — plus a popcount AllPairs of O(tiles^2/64)
// word operations; recycled analyzers keep their tables, so a
// steady-state trial allocates nothing.
func TopoFig6SweepCtx(ctx context.Context, topology string, grid geom.Grid, faultCounts []int, trials int, seed int64, opts Fig6Opts) ([]Fig6Point, error) {
	name, err := NormalizeTopology(topology)
	if err != nil {
		return nil, err
	}
	if name == TopoMesh {
		return Fig6SweepCtx(ctx, grid, faultCounts, trials, seed, opts)
	}
	topo, err := NewTopology(name, grid)
	if err != nil {
		return nil, err
	}
	// The topology is shared (the Topology contract makes it safe for
	// concurrent use); samplers and analyzers are per-worker scratch.
	type scratch struct {
		s *fault.Sampler
		a TopoAnalyzer
	}
	newScratch := func() *scratch { return &scratch{s: fault.NewSampler(grid)} }
	return fig6Sweep(ctx, faultCounts, grid.Size(), trials, seed, opts, newScratch, func(sc *scratch, n int, rng *rand.Rand) PairStats {
		sc.a.Reset(topo, sc.s.Draw(n, rng))
		return sc.a.AllPairs()
	})
}
