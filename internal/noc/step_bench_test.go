package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// stepBenchSide is the grid side of the per-step benchmarks: 256 tiles,
// large enough that an idle step's cost is dominated by how many routers
// the allocator visits.
const stepBenchSide = 16

// stepLoad is the loaded step's offered traffic: packets injected per
// cycle across the grid (1/8 packet per tile per cycle, below every
// topology's saturation point, so the network reaches a steady state).
const stepLoad = stepBenchSide * stepBenchSide / 8

// stepBench is one cycle of a per-topology engine benchmark: an
// optional fixed injection pattern, then Sim.Step.
type stepBench struct {
	sim   *Sim
	pairs [][2]geom.Coord // precomputed (src, dst) stream, replayed cyclically
	next  int
	load  bool
}

// newStepBench builds a healthy stepBenchSide² simulator of the named
// topology and warms it up to steady state: empty for idle, under
// uniform random traffic at stepLoad for loaded.
func newStepBench(tb testing.TB, topo string, loaded bool) *stepBench {
	tb.Helper()
	g := geom.NewGrid(stepBenchSide, stepBenchSide)
	tp, err := NewTopology(topo, g)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), tp)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sb := &stepBench{sim: s, pairs: make([][2]geom.Coord, 4096), load: loaded}
	for i := range sb.pairs {
		sb.pairs[i] = [2]geom.Coord{
			geom.C(rng.Intn(g.W), rng.Intn(g.H)),
			geom.C(rng.Intn(g.W), rng.Intn(g.H)),
		}
	}
	for i := 0; i < 1000; i++ {
		sb.step()
	}
	return sb
}

// step injects the loaded pattern's packets for one cycle (refusals are
// part of the load) and steps the simulator.
func (sb *stepBench) step() {
	if sb.load {
		for k := 0; k < stepLoad; k++ {
			p := sb.pairs[sb.next]
			if sb.next++; sb.next == len(sb.pairs) {
				sb.next = 0
			}
			sb.sim.Inject(Network(k&1), p[0], p[1], Request, 0, 0)
		}
	}
	sb.sim.Step()
}

// BenchmarkSimStep times one simulated cycle per op on every topology,
// idle (no packet anywhere: the cost of stepping a quiet network, as
// the chaos machine does between bursts) and loaded (steady uniform
// traffic at stepLoad).
func BenchmarkSimStep(b *testing.B) {
	for _, topo := range TopologyNames() {
		for _, mode := range []string{"idle", "loaded"} {
			b.Run(topo+"/"+mode, func(b *testing.B) {
				sb := newStepBench(b, topo, mode == "loaded")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sb.step()
				}
			})
		}
	}
}

// TestSimStepZeroAllocs pins the cycle engine's steady state as
// allocation-free on every topology, idle and loaded: grant lists and
// the flight wheel's buckets reach their working size during warm-up
// and are reused from then on.
func TestSimStepZeroAllocs(t *testing.T) {
	for _, topo := range TopologyNames() {
		for _, loaded := range []bool{false, true} {
			sb := newStepBench(t, topo, loaded)
			for i := 0; i < 200; i++ { // regrow scratch
				sb.step()
			}
			if allocs := testing.AllocsPerRun(200, sb.step); allocs != 0 {
				t.Errorf("%s loaded=%v: %.2f allocs per step, want 0", topo, loaded, allocs)
			}
		}
	}
}
