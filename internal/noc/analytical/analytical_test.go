package analytical

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// mustModel builds the model production callers get for a topology
// name.
func mustModel(t *testing.T, name string, fm *fault.Map) *Model {
	t.Helper()
	m, err := NewForTopology(name, fm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The fault-free model must recover the closed-form bisection bound
// 8/N exactly before the allocation-efficiency derating: the hottest
// links sit on the bisection and their marginal load is analytic.
func TestSaturationMatchesTheory(t *testing.T) {
	for _, side := range []int{8, 16, 32} {
		g := geom.NewGrid(side, side)
		m := mustModel(t, noc.TopoMesh, fault.NewMap(g))
		bound := noc.TheoreticalSaturation(g)
		if rel := math.Abs(m.sat-bound) / bound; rel > 0.02 {
			t.Errorf("side %d: ideal saturation %.4f vs 8/N bound %.4f (rel %.3f)",
				side, m.sat, bound, rel)
		}
		if got, want := m.SaturationRate(), bound*DefaultAllocEfficiency; math.Abs(got-want) > 0.02*want {
			t.Errorf("side %d: derated saturation %.4f, want %.4f", side, got, want)
		}
	}
}

// ReachableFraction is exact: on seeded faulty maps of every shipped
// topology it equals the share of ordered healthy pairs, over both
// networks, whose route the connectivity analyzer calls clear.
func TestReachableFractionMatchesAnalyzer(t *testing.T) {
	for _, topo := range noc.TopologyNames() {
		for _, side := range []int{8, 10} {
			g := geom.NewGrid(side, side)
			nt, err := noc.NewTopology(topo, g)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 4; seed++ {
				fm := fault.Random(g, 3*int(seed+1), rand.New(rand.NewSource(seed)))
				an := noc.NewTopoAnalyzer(nt, fm)
				healthy := fm.HealthyCoords()
				var clear [2]int64
				for _, src := range healthy {
					for _, dst := range healthy {
						if src == dst {
							continue
						}
						for _, net := range []noc.Network{noc.XY, noc.YX} {
							if an.PathClear(net, src, dst) {
								clear[net]++
							}
						}
					}
				}
				pairs := float64(len(healthy)) * float64(len(healthy)-1)
				want := float64(clear[noc.XY]+clear[noc.YX]) / (2 * pairs)
				if got := mustModel(t, topo, fm).ReachableFraction(); got != want {
					t.Errorf("%s %dx%d seed %d: ReachableFraction %v, analyzer counts %v", topo, side, side, seed, got, want)
				}
			}
		}
	}
}

// Conservation: summed over every directed link of both networks, the
// expected crossings per packet must equal the average hop count
// (fault-free: no partial traversals), and the per-network clear-pair
// fractions are mirror images so reach must be exactly 1.
func TestLinkLoadConservation(t *testing.T) {
	g := geom.NewGrid(9, 9)
	m := mustModel(t, noc.TopoMesh, fault.NewMap(g))
	if m.ReachableFraction() != 1 {
		t.Errorf("fault-free reach %.6f, want 1", m.ReachableFraction())
	}
	var sum float64
	for _, net := range []noc.Network{noc.XY, noc.YX} {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				for _, d := range geom.Dirs() {
					sum += m.norm[net][g.Index(geom.C(x, y))*m.np+int(d)]
				}
			}
		}
	}
	healthy := float64(g.Size())
	if rel := math.Abs(sum-healthy*m.avgLen) / (healthy * m.avgLen); rel > 1e-9 {
		t.Errorf("sum of link loads %.4f, want healthy*avgRouteLength = %.4f", sum, healthy*m.avgLen)
	}
}

// The latency-throughput curve must behave like a queueing model:
// latency grows monotonically with offered rate, delivered tracks
// offered below saturation and plateaus above it, and backpressure
// only appears past saturation.
func TestThroughputCurveShape(t *testing.T) {
	g := geom.NewGrid(16, 16)
	m := mustModel(t, noc.TopoMesh, fault.NewMap(g))
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.7, 1.0}
	pts, err := m.ThroughputCurve(context.Background(), rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgLatency < pts[i-1].AvgLatency {
			t.Errorf("latency not monotone: %.2f @%.2f after %.2f @%.2f",
				pts[i].AvgLatency, rates[i], pts[i-1].AvgLatency, rates[i-1])
		}
	}
	sat := m.SaturationRate()
	for i, pt := range pts {
		below := rates[i] <= sat
		if below && math.Abs(pt.DeliveredRate-rates[i]) > 1e-9 {
			t.Errorf("below saturation: delivered %.4f != offered %.4f", pt.DeliveredRate, rates[i])
		}
		if below && pt.Backpressured != 0 {
			t.Errorf("backpressure %.3f below saturation rate %.3f", pt.Backpressured, rates[i])
		}
		if !below && math.Abs(pt.DeliveredRate-sat) > 1e-9 {
			t.Errorf("above saturation: delivered %.4f != plateau %.4f", pt.DeliveredRate, sat)
		}
	}
	if _, err := m.ThroughputCurve(context.Background(), []float64{-0.1}); err == nil {
		t.Error("negative rate accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ThroughputCurve(ctx, rates); err == nil {
		t.Error("cancelled context not honored")
	}
}

// Faults shift load and shrink capacity: killing a center tile must
// not raise saturation and must strand some pairs.
func TestFaultsDegradeModel(t *testing.T) {
	g := geom.NewGrid(12, 12)
	clean := mustModel(t, noc.TopoMesh, fault.NewMap(g))
	fm := fault.NewMap(g)
	fm.MarkFaulty(geom.C(6, 6))
	fm.MarkFaulty(geom.C(3, 5))
	m := mustModel(t, noc.TopoMesh, fm)
	if m.SaturationRate() > clean.SaturationRate()+1e-9 {
		t.Errorf("faulty saturation %.4f above clean %.4f", m.SaturationRate(), clean.SaturationRate())
	}
	if m.ReachableFraction() >= 1 {
		t.Errorf("faulty reach %.4f, want < 1", m.ReachableFraction())
	}
}

// The model is interchangeable with the cycle engine behind the
// LatencyModel seam.
var _ noc.LatencyModel = (*Model)(nil)
var _ noc.LatencyModel = (*noc.CycleModel)(nil)
