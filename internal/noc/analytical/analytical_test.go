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

// mustForTopology builds the model production callers get for a
// topology name.
func mustForTopology(t *testing.T, name string, fm *fault.Map) noc.LatencyModel {
	t.Helper()
	m, err := NewForTopology(name, fm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustModel is mustForTopology with the concrete type, whose accessors
// go beyond noc.LatencyModel.
func mustModel(t *testing.T, name string, fm *fault.Map) *Model {
	t.Helper()
	return mustForTopology(t, name, fm).(*Model)
}

// The fault-free model must recover the closed-form bisection bound
// 8/N exactly before the allocation-efficiency derating: the hottest
// links sit on the bisection and their marginal load is analytic.
func TestSaturationMatchesTheory(t *testing.T) {
	for _, side := range []int{8, 16, 32} {
		g := geom.NewGrid(side, side)
		m := mustModel(t, noc.TopoMesh, fault.NewMap(g))
		bound := noc.TheoreticalSaturation(g)
		if rel := math.Abs(m.IdealSaturationRate()-bound) / bound; rel > 0.02 {
			t.Errorf("side %d: ideal saturation %.4f vs 8/N bound %.4f (rel %.3f)",
				side, m.IdealSaturationRate(), bound, rel)
		}
		if got, want := m.SaturationRate(), bound*DefaultAllocEfficiency; math.Abs(got-want) > 0.02*want {
			t.Errorf("side %d: derated saturation %.4f, want %.4f", side, got, want)
		}
	}
}

// Zero-load pair latency is exact: h hops * (1 router cycle + link
// latency) with no queueing terms.
func TestZeroLoadPairLatencyExact(t *testing.T) {
	g := geom.NewGrid(12, 12)
	m := mustModel(t, noc.TopoMesh, fault.NewMap(g))
	perHop := float64(noc.DefaultSimConfig().LinkLatency)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		src := geom.C(rng.Intn(12), rng.Intn(12))
		dst := geom.C(rng.Intn(12), rng.Intn(12))
		if src == dst {
			continue
		}
		for _, net := range []noc.Network{noc.XY, noc.YX} {
			lat, ok := m.PairLatency(net, src, dst, 0)
			if !ok {
				t.Fatalf("fault-free pair %v->%v blocked", src, dst)
			}
			if want := float64(src.Manhattan(dst))*perHop + 1; lat != want {
				t.Errorf("%v %v->%v: zero-load latency %.1f, want %.1f", net, src, dst, lat, want)
			}
		}
	}
}

// Blocked-path reporting must agree with the exact connectivity
// analyzer on every pair of a seeded faulty map.
func TestPairBlockingMatchesAnalyzer(t *testing.T) {
	g := geom.NewGrid(10, 10)
	fm := fault.Random(g, 9, rand.New(rand.NewSource(2021)))
	m := mustModel(t, noc.TopoMesh, fm)
	an := noc.NewAnalyzer(fm)
	healthy := fm.HealthyCoords()
	for _, src := range healthy {
		for _, dst := range healthy {
			if src == dst {
				continue
			}
			for _, net := range []noc.Network{noc.XY, noc.YX} {
				_, ok := m.PairLatency(net, src, dst, 0)
				if ok != an.PathClear(net, src, dst) {
					t.Fatalf("%v %v->%v: model ok=%v, analyzer PathClear=%v",
						net, src, dst, ok, an.PathClear(net, src, dst))
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
					sum += m.LinkLoad(net, geom.C(x, y), int(d))
				}
			}
		}
	}
	healthy := float64(g.Size())
	if rel := math.Abs(sum-healthy*m.AvgRouteLength()) / (healthy * m.AvgRouteLength()); rel > 1e-9 {
		t.Errorf("sum of link loads %.4f, want healthy*avgRouteLength = %.4f", sum, healthy*m.AvgRouteLength())
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
// not raise saturation, must strand some pairs, and the model must
// keep loading links on partial paths toward dropped destinations.
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
	// A same-row pair straddling the dead tile is blocked on XY but
	// routes around it on YX.
	if _, ok := m.PairLatency(noc.XY, geom.C(4, 6), geom.C(8, 7), 0); ok {
		t.Error("XY route through dead tile reported clear")
	}
	if _, ok := m.PairLatency(noc.YX, geom.C(4, 6), geom.C(8, 7), 0); !ok {
		t.Error("YX route around dead tile reported blocked")
	}
}

// The model is interchangeable with the cycle engine behind the
// LatencyModel seam.
var _ noc.LatencyModel = (*Model)(nil)
var _ noc.LatencyModel = (*noc.CycleModel)(nil)
