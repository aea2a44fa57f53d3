package noc

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TestTopoAnalyzerMatchesMeshAnalyzer cross-validates the route-walking
// connectivity relation against the prefix-sum analyzer: on the mesh
// topology both describe the same DoR routes, so every PathClear answer
// and the AllPairs aggregate must be identical.
func TestTopoAnalyzerMatchesMeshAnalyzer(t *testing.T) {
	g := geom.NewGrid(12, 12)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		fm := fault.Random(g, trial*3, rng)
		ref := NewAnalyzer(fm)
		topo, err := NewTopology(TopoMesh, g)
		if err != nil {
			t.Fatal(err)
		}
		ta := NewTopoAnalyzer(topo, fm)
		g.All(func(s geom.Coord) {
			g.All(func(d geom.Coord) {
				for _, net := range []Network{XY, YX} {
					if got, want := ta.PathClear(net, s, d), ref.PathClear(net, s, d); got != want {
						t.Fatalf("trial %d: PathClear(%v, %v, %v) = %v, analyzer says %v", trial, net, s, d, got, want)
					}
				}
			})
		})
		if got, want := ta.AllPairs(), ref.AllPairs(); got != want {
			t.Fatalf("trial %d: AllPairs %+v vs analyzer %+v", trial, got, want)
		}
	}
}

// TestTopoAnalyzerMatchesEngine pins the analyzer's fault semantics to
// the cycle engine: a pair is deliverable in an otherwise idle network
// exactly when the analyzer calls its path clear.
func TestTopoAnalyzerMatchesEngine(t *testing.T) {
	g := geom.NewGrid(8, 8)
	for _, name := range TopologyNames() {
		fm := fault.Random(g, 6, rand.New(rand.NewSource(31)))
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		ta := NewTopoAnalyzer(topo, fm)
		healthy := fm.HealthyCoords()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			if src == dst {
				continue
			}
			net := Network(i % 2)
			s, err := NewSimTopology(fm, DefaultSimConfig(), topo)
			if err != nil {
				t.Fatal(err)
			}
			delivered := false
			s.OnDeliver = func(Packet) { delivered = true }
			if _, err := s.Inject(net, src, dst, Request, 0, 0); err != nil {
				t.Fatal(err)
			}
			s.RunUntilDrained(10_000)
			if want := ta.PathClear(net, src, dst); delivered != want {
				t.Errorf("%s %v %v->%v: engine delivered=%v, analyzer clear=%v", name, net, src, dst, delivered, want)
			}
		}
	}
}

// TestTopoFig6Sweep checks the generalized Fig. 6 sweep: the mesh path
// is bit-identical to the prefix-sum sweep, every topology's dual curve
// sits at or below its single curve, and a fault-free point has no
// disconnections.
func TestTopoFig6Sweep(t *testing.T) {
	g := geom.NewGrid(10, 10)
	counts := []int{0, 2, 5}
	const trials, seed = 4, 99
	ref := mustFig6(t, g, counts, trials, seed, 0)
	for _, name := range TopologyNames() {
		pts, err := TopoFig6SweepCtx(context.Background(), name, g, counts, trials, seed, Fig6Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(counts) {
			t.Fatalf("%s: %d points, want %d", name, len(pts), len(counts))
		}
		for i, p := range pts {
			if name == TopoMesh && p != ref[i] {
				t.Errorf("mesh point %d: %+v differs from Fig6SweepCtx %+v", i, p, ref[i])
			}
			if p.PctDual.Mean > p.PctSingle.Mean+1e-12 {
				t.Errorf("%s faults=%d: dual %.4f%% above single %.4f%%", name, p.Faults, p.PctDual.Mean, p.PctSingle.Mean)
			}
			if p.Faults == 0 && (p.PctSingle.Mean != 0 || p.PctDual.Mean != 0) {
				t.Errorf("%s: fault-free map has disconnections (%.4f%% / %.4f%%)", name, p.PctSingle.Mean, p.PctDual.Mean)
			}
		}
	}
	if _, err := TopoFig6SweepCtx(context.Background(), "torus", g, counts, trials, seed, Fig6Opts{}); err == nil {
		t.Error("unknown topology accepted")
	}
}

// routeWalkClear is the reference build of TopoAnalyzer's route-clear
// relation: it resolves every tile's next hop toward every destination
// and walks the routes with chain memoization, O(tiles^2) routing
// decisions per network. It returns the relation in TopoAnalyzer's
// destination-major layout (row d, bit s: route s->d clear) so the two
// compare word for word.
func routeWalkClear(topo Topology, fm *fault.Map) [2][]uint64 {
	g := fm.Grid()
	size := g.Size()
	words := (size + 63) / 64
	alive := make([]bool, size)
	nextIdx := make([]int32, size)
	state := make([]int8, size) // 0 unknown, 1 clear, 2 blocked
	var stack []int32
	g.All(func(c geom.Coord) { alive[g.Index(c)] = fm.Healthy(c) })
	pol := topo.Policy()
	local := topo.Ports() - 1
	var buf [MaxPorts]int
	var rel [2][]uint64
	for net := 0; net < 2; net++ {
		n := Network(net)
		rel[net] = make([]uint64, size*words)
		for di := 0; di < size; di++ {
			dst := g.Coord(di)
			// Resolve every tile's next hop toward dst; -1 = terminal.
			for i := 0; i < size; i++ {
				state[i] = 0
				cur := g.Coord(i)
				nc := pol.Candidates(n, cur, dst, cur, local, buf[:])
				if nc <= 0 || buf[0] == local {
					nextIdx[i] = -1
					continue
				}
				far, _, _, ok := topo.Link(cur, buf[0])
				if !ok {
					nextIdx[i] = -1
					continue
				}
				nextIdx[i] = int32(g.Index(far))
			}
			if alive[di] {
				state[di] = 1
			} else {
				state[di] = 2
			}
			// clear[i] = alive[i] && clear[next[i]], memoized along the
			// in-tree chains.
			for i := 0; i < size; i++ {
				if state[i] != 0 {
					continue
				}
				stack = stack[:0]
				j := int32(i)
				for state[j] == 0 {
					stack = append(stack, j)
					if !alive[j] || nextIdx[j] < 0 {
						break
					}
					j = nextIdx[j]
				}
				verdict := state[j]
				if verdict == 0 { // loop head was itself unresolved: blocked
					verdict = 2
				}
				for k := len(stack) - 1; k >= 0; k-- {
					t := stack[k]
					if !alive[t] || nextIdx[t] < 0 {
						verdict = 2
					}
					state[t] = verdict
				}
			}
			for i := 0; i < size; i++ {
				if state[i] == 1 {
					rel[net][di*words+i>>6] |= 1 << uint(i&63)
				}
			}
		}
	}
	return rel
}

// routeWalkPairs is the reference pair loop over a relation built by
// routeWalkClear: every unordered pair of distinct healthy tiles,
// queried one at a time.
func routeWalkPairs(rel [2][]uint64, fm *fault.Map) PairStats {
	g := fm.Grid()
	words := (g.Size() + 63) / 64
	clear := func(net Network, s, d geom.Coord) bool {
		si := g.Index(s)
		return rel[net][g.Index(d)*words+si>>6]>>uint(si&63)&1 != 0
	}
	healthy := fm.HealthyCoords()
	st := PairStats{HealthyTiles: len(healthy)}
	for i, s := range healthy {
		for _, d := range healthy[i+1:] {
			st.Pairs++
			if !(clear(XY, s, d) && clear(XY, d, s)) {
				st.DisconnectedSingle++
			}
			if !(clear(XY, s, d) || clear(YX, s, d)) {
				st.DisconnectedDual++
				if SameRowOrColumn(s, d) {
					st.DualSameRowCol++
				}
			}
		}
	}
	return st
}

// routeWalkMaps returns the fault maps the differential test checks on
// a grid: uniform random maps at each count, faults packed onto the
// array edge, and spatially clustered faults.
func routeWalkMaps(g geom.Grid, counts []int, rng *rand.Rand) []*fault.Map {
	var maps []*fault.Map
	for _, n := range counts {
		maps = append(maps, fault.Random(g, n, rng))
	}
	most := counts[len(counts)-1]
	edge := fault.NewMap(g)
	coords := g.EdgeCoords()
	for _, i := range rng.Perm(len(coords))[:min(most, len(coords)/2)] {
		edge.MarkFaulty(coords[i])
	}
	return append(maps, edge, fault.Clustered(g, most, fault.DefaultClusters(), rng))
}

// TestTopoAnalyzerMatchesRouteWalk checks the fault-driven build and
// the popcount pair count against the reference route walk: identical
// relations word for word and identical PairStats on every topology,
// on grids whose tile counts are not multiples of 64, with 0-30 random,
// edge and clustered faults. One analyzer is reused throughout, so
// Reset is exercised across topology switches on one grid and across
// grid changes (the neighbour table must rebuild).
func TestTopoAnalyzerMatchesRouteWalk(t *testing.T) {
	grids := []struct {
		g      geom.Grid
		counts []int
	}{
		{geom.NewGrid(9, 6), []int{0, 1, 2, 4, 8, 15, 30}},
		{geom.NewGrid(7, 5), []int{0, 1, 3, 6, 12}},
		{geom.NewGrid(13, 9), []int{0, 1, 5, 10, 20, 30}},
		{geom.NewGrid(70, 3), []int{0, 2, 7, 30}},
		{geom.NewGrid(16, 16), []int{0, 1, 5, 12, 30}},
		{geom.NewGrid(32, 32), []int{30}},
		{geom.NewGrid(9, 6), []int{3, 9}},
	}
	rng := rand.New(rand.NewSource(2603))
	var a TopoAnalyzer
	for _, tc := range grids {
		maps := routeWalkMaps(tc.g, tc.counts, rng)
		for _, name := range TopologyNames() {
			topo, err := NewTopology(name, tc.g)
			if err != nil {
				continue // vertical needs an even row count
			}
			for mi, fm := range maps {
				ref := routeWalkClear(topo, fm)
				a.Reset(topo, fm)
				for net := range ref {
					if !reflect.DeepEqual(a.clear[net], ref[net]) {
						t.Fatalf("%s %v map %d (%d faults) net %d: relation differs from the route walk", name, tc.g, mi, fm.Count(), net)
					}
				}
				if got, want := a.AllPairs(), routeWalkPairs(ref, fm); got != want {
					t.Fatalf("%s %v map %d (%d faults): AllPairs %+v, route walk %+v", name, tc.g, mi, fm.Count(), got, want)
				}
			}
		}
	}
}

// TestTopoAnalyzerZeroAllocs pins the steady state of the Monte Carlo
// loop: once an analyzer has been sized for a topology and grid, a
// Reset on a new map plus AllPairs allocates nothing.
func TestTopoAnalyzerZeroAllocs(t *testing.T) {
	g := geom.NewGrid(16, 16)
	rng := rand.New(rand.NewSource(9))
	maps := []*fault.Map{fault.Random(g, 8, rng), fault.Random(g, 20, rng)}
	for _, name := range TopologyNames() {
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		var a TopoAnalyzer
		a.Reset(topo, maps[1])
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			a.Reset(topo, maps[i%2])
			_ = a.AllPairs()
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per Reset+AllPairs, want 0", name, allocs)
		}
	}
}

// TestChipletTrialZeroAllocs pins the steady state of the chiplet
// sweep's trial: once a worker's scratch has been sized, a draw plus a
// masked Reset plus AllPairs allocates nothing.
func TestChipletTrialZeroAllocs(t *testing.T) {
	g := geom.NewGrid(16, 16)
	topo := MeshTopology(g)
	sc := newChipletScratch(g)
	rng := rand.New(rand.NewSource(0))
	trial := func(i int) {
		rng.Seed(int64(i % 2)) // two repeating maps: scratch growth ends after both
		sc.draw(8+12*(i%2), rng)
		sc.a.reset(topo, sc.compute, sc.blocked)
		_ = sc.a.AllPairs()
	}
	trial(0)
	trial(1)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		trial(i)
		i++
	})
	if allocs != 0 {
		t.Errorf("%.2f allocs per chiplet draw+Reset+AllPairs, want 0", allocs)
	}
}

// TestFig6SweepSeedingZeroAllocs: fig6Sweep's per-trial step, which
// seeds the trial's generator and runs the trial, allocates nothing, so
// a sweep's allocations do not grow with its trial count (a trial that
// itself allocates nothing, as TestChipletTrialZeroAllocs shows of the
// chiplet trial, then runs allocation-free inside the sweep).
func TestFig6SweepSeedingZeroAllocs(t *testing.T) {
	var sink int64
	sweep := func(trials int) float64 {
		return testing.AllocsPerRun(20, func() {
			_, err := fig6Sweep(context.Background(), []int{3}, 10, trials, 2021, Fig6Opts{Workers: 1},
				func(n int, rng *rand.Rand) PairStats {
					sink += rng.Int63()
					return PairStats{}
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := sweep(2), sweep(66); many != few {
		t.Errorf("a 66-trial sweep makes %.0f allocations, a 2-trial one %.0f; want no per-trial allocation", many, few)
	}
}

// TestTopoFig6SweepPin pins the non-mesh Fig. 6 curves against a golden
// file, and checks that the worker count does not change them.
func TestTopoFig6SweepPin(t *testing.T) {
	g := geom.NewGrid(16, 16)
	counts := []int{3, 8}
	const trials, seed = 4, 2021
	var b strings.Builder
	for _, name := range newTopologies {
		var first []Fig6Point
		for _, workers := range []int{1, 2, 4} {
			pts, err := TopoFig6SweepCtx(context.Background(), name, g, counts, trials, seed, Fig6Opts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = pts
			} else if !reflect.DeepEqual(pts, first) {
				t.Errorf("%s: %d workers give %+v, 1 worker %+v", name, workers, pts, first)
			}
		}
		for _, p := range first {
			fmt.Fprintf(&b, "%s %+v\n", name, p)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "topo_fig6.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("topo_fig6.golden differs from the sweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
