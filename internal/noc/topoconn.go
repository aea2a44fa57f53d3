package noc

import (
	"context"
	"sync"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TopoAnalyzer answers the same two-way connectivity questions as
// Analyzer for an arbitrary Topology. The mesh analyzer's prefix-sum
// trick needs DoR row/column route shapes; a generic topology instead
// gets its route-clear relation computed by walking the deterministic
// routes once per (network, destination) with chain memoization —
// routes toward one destination form an in-tree (the same property the
// analytical TopoModel exploits), so the build is O(tiles^2) per
// network and every PathClear query afterwards is O(1).
//
// Fault semantics match the cycle engine: a route is clear iff every
// tile it enters (source and destination included) is healthy; express
// links fly over intermediate tiles without entering their routers, so
// an express route can be clear where the unit-mesh route is not.
type TopoAnalyzer struct {
	topo Topology
	grid geom.Grid
	fm   *fault.Map
	// clear[net] is a bitset over src*size+dst: a set bit means the
	// route src->dst enters only healthy tiles. One bit per pair keeps a
	// 32x32 analyzer at 256 KiB instead of 2 MiB.
	clear [2][]uint64

	// build scratch, retained across Reset for Monte Carlo reuse.
	alive   []bool
	nextIdx []int32
	state   []int8 // 0 unknown, 1 clear, 2 blocked
	stack   []int32
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
// the same or a different topology, reusing the backing arrays whenever
// the grid shape allows — the Monte Carlo loop calls this once per
// trial map. The zero TopoAnalyzer is a valid Reset target.
func (a *TopoAnalyzer) Reset(topo Topology, fm *fault.Map) {
	g := fm.Grid()
	size := g.Size()
	if a.grid != g || a.topo == nil || a.topo.Name() != topo.Name() {
		a.clear[XY] = make([]uint64, (size*size+63)/64)
		a.clear[YX] = make([]uint64, (size*size+63)/64)
		a.alive = make([]bool, size)
		a.nextIdx = make([]int32, size)
		a.state = make([]int8, size)
	}
	a.topo, a.grid, a.fm = topo, g, fm
	g.All(func(c geom.Coord) { a.alive[g.Index(c)] = fm.Healthy(c) })
	pol := topo.Policy()
	local := topo.Ports() - 1
	var buf [MaxPorts]int
	var pkt Packet // hoisted: the policy call takes its address
	for net := 0; net < 2; net++ {
		n := Network(net)
		row := a.clear[net]
		for w := range row {
			row[w] = 0
		}
		for di := 0; di < size; di++ {
			dst := g.Coord(di)
			// Resolve every tile's next hop toward dst; -1 = terminal
			// (ejecting here, rightly or wrongly — walkRoute-style
			// wedges cannot happen for validated topologies).
			for i := 0; i < size; i++ {
				a.state[i] = 0
				cur := g.Coord(i)
				pkt = Packet{Net: n, Src: cur, Dst: dst}
				nc := pol.Candidates(n, &pkt, cur, local, buf[:])
				if nc <= 0 || buf[0] == local {
					a.nextIdx[i] = -1
					continue
				}
				far, _, _, ok := topo.Link(cur, buf[0])
				if !ok {
					a.nextIdx[i] = -1
					continue
				}
				a.nextIdx[i] = int32(g.Index(far))
			}
			if a.alive[di] {
				a.state[di] = 1
			} else {
				a.state[di] = 2
			}
			// clear[i] = alive[i] && clear[next[i]], memoized along the
			// in-tree chains.
			for i := 0; i < size; i++ {
				if a.state[i] != 0 {
					continue
				}
				a.stack = a.stack[:0]
				j := int32(i)
				for a.state[j] == 0 {
					a.stack = append(a.stack, j)
					if !a.alive[j] || a.nextIdx[j] < 0 {
						break
					}
					j = a.nextIdx[j]
				}
				verdict := a.state[j]
				if verdict == 0 { // loop head was itself unresolved: blocked
					verdict = 2
				}
				for k := len(a.stack) - 1; k >= 0; k-- {
					t := a.stack[k]
					if !a.alive[t] || a.nextIdx[t] < 0 {
						verdict = 2
					}
					a.state[t] = verdict
				}
			}
			for i := 0; i < size; i++ {
				if a.state[i] == 1 {
					k := i*size + di
					row[k>>6] |= 1 << uint(k&63)
				}
			}
		}
	}
}

// PathClear reports whether the topology's route from src to dst on the
// given network passes only healthy tiles (endpoints included).
func (a *TopoAnalyzer) PathClear(net Network, src, dst geom.Coord) bool {
	k := a.grid.Index(src)*a.grid.Size() + a.grid.Index(dst)
	return a.clear[net][k>>6]>>uint(k&63)&1 != 0
}

// PairUsableSingle mirrors Analyzer.PairUsableSingle: two-way
// communication on the injected network alone — request s->d and
// response d->s both clear.
func (a *TopoAnalyzer) PairUsableSingle(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) && a.PathClear(XY, d, s)
}

// PairUsableDual mirrors Analyzer.PairUsableDual: with both networks a
// request sent X-Y is answered Y-X over the same tiles, so the pair
// works iff either physical path is clear.
func (a *TopoAnalyzer) PairUsableDual(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) || a.PathClear(YX, s, d)
}

// AllPairs aggregates two-way connectivity over all unordered pairs of
// distinct healthy tiles — one Fig. 6 sample on this topology.
func (a *TopoAnalyzer) AllPairs() PairStats {
	healthy := a.fm.HealthyCoords()
	st := PairStats{HealthyTiles: len(healthy)}
	for i, s := range healthy {
		for _, d := range healthy[i+1:] {
			st.Pairs++
			if !a.PairUsableSingle(s, d) {
				st.DisconnectedSingle++
			}
			if !a.PairUsableDual(s, d) {
				st.DisconnectedDual++
				if SameRowOrColumn(s, d) {
					st.DualSameRowCol++
				}
			}
		}
	}
	return st
}

// TopoFig6Sweep runs the Fig. 6 Monte Carlo on the named topology with
// default options; see TopoFig6SweepCtx.
func TopoFig6Sweep(topology string, grid geom.Grid, faultCounts []int, trials int, seed int64) ([]Fig6Point, error) {
	return TopoFig6SweepCtx(context.Background(), topology, grid, faultCounts, trials, seed, Fig6Opts{})
}

// TopoFig6SweepCtx is Fig6SweepCtx generalized over topologies: the
// percentage of disconnected pairs per fault count, averaged over
// random fault maps, on the named topology's link graph ("" = mesh).
// The mesh delegates to the prefix-sum sweep, so mesh results are
// bit-identical to Fig6SweepCtx at any worker count; other topologies
// use TopoAnalyzer with the same trial maps (same grid, seed and trial
// derivation), so curves are comparable across topologies point by
// point.
func TopoFig6SweepCtx(ctx context.Context, topology string, grid geom.Grid, faultCounts []int, trials int, seed int64, opts Fig6Opts) ([]Fig6Point, error) {
	name, err := NormalizeTopology(topology)
	if err != nil {
		return nil, err
	}
	if name == TopoMesh {
		return Fig6SweepCtx(ctx, grid, faultCounts, trials, seed, opts)
	}
	if _, err := NewTopology(name, grid); err != nil {
		return nil, err
	}
	mc := fault.MonteCarlo{Grid: grid, Trials: trials, Seed: seed, Workers: opts.Workers}
	total := len(faultCounts) * trials
	var cum int64
	var cumMu sync.Mutex
	if opts.Progress != nil {
		mc.Progress = func(int, int) {
			cumMu.Lock()
			cum++
			done := int(cum)
			cumMu.Unlock()
			opts.Progress(done, total)
		}
	}
	pool := sync.Pool{New: func() any { return &TopoAnalyzer{} }}
	out := make([]Fig6Point, 0, len(faultCounts))
	for _, n := range faultCounts {
		single := make([]float64, trials)
		dual := make([]float64, trials)
		err := mc.ForEachMapCtx(ctx, n, func(trial int, m *fault.Map) {
			// Each trial builds its own topology value (they are immutable
			// and cheap: a grid and a couple of ints) so pooled analyzers
			// never share one across goroutines.
			topo, terr := NewTopology(name, grid)
			if terr != nil {
				return // validated above; unreachable
			}
			a := pool.Get().(*TopoAnalyzer)
			a.Reset(topo, m)
			st := a.AllPairs()
			pool.Put(a)
			single[trial] = st.PctSingle()
			dual[trial] = st.PctDual()
		})
		if err != nil {
			return out, err
		}
		out = append(out, Fig6Point{
			Faults:    n,
			PctSingle: fault.Collect(single),
			PctDual:   fault.Collect(dual),
		})
	}
	return out, nil
}
