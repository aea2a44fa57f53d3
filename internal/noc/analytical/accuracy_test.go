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

// Accuracy validation of the analytical fast path against its oracle,
// the cycle-accurate engine. Every shipped topology is held to the
// same budget. The configurations are pinned (the Fig. 7 16x16 array,
// fault-free and with a seeded fault map) and every tolerance below is
// a documented model-error budget, not an exact-equality claim:
//
//   - delivered throughput below saturation: <= 10% relative error
//     (the cycle engine loses a little offered traffic to injection
//     backpressure even below the bisection bound);
//   - average latency below ~60% of saturation: <= 25% relative error
//     (the M/D/1 waits ignore switch-allocation round-robin effects
//     and FIFO-depth ceilings);
//   - saturation throughput: <= 25% relative error against the
//     measured plateau.
//
// Anything tighter should come from making the model better, not from
// loosening the window; anything looser must be justified here.

const (
	tolDelivered = 0.10
	tolLatency   = 0.25
	tolSat       = 0.25
)

func relErr(model, exact float64) float64 {
	if exact == 0 {
		return math.Abs(model)
	}
	return math.Abs(model-exact) / math.Abs(exact)
}

func fig7Maps(t *testing.T) map[string]*fault.Map {
	t.Helper()
	g := geom.NewGrid(16, 16)
	return map[string]*fault.Map{
		"fault-free": fault.NewMap(g),
		"8-faults":   fault.Random(g, 8, rand.New(rand.NewSource(2021))),
	}
}

// cycleModel is the cycle engine on a topology with the default
// measurement window.
func cycleModel(topo string, fm *fault.Map) *noc.CycleModel {
	cfg := noc.DefaultThroughputConfig()
	cfg.Topology = topo
	return &noc.CycleModel{FM: fm, Cfg: cfg}
}

// TestTopoModelMatchesMeshModel cross-validates the two marginal
// builds: on the mesh topology the in-tree aggregation and the prefix
// sums count exactly the same crossings, so every aggregate and link
// load must agree.
func TestTopoModelMatchesMeshModel(t *testing.T) {
	const tol = 1e-9
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for name, fm := range fig7Maps(t) {
		t.Run(name, func(t *testing.T) {
			ref := mustModel(t, noc.TopoMesh, fm)
			g := fm.Grid()
			tm, err := newModel(noc.MeshTopology(g), fm, (*Model).buildInTree)
			if err != nil {
				t.Fatal(err)
			}
			for _, agg := range []struct {
				name         string
				intree, mesh float64
			}{
				{"ideal saturation", tm.sat, ref.sat},
				{"saturation", tm.SaturationRate(), ref.SaturationRate()},
				{"reachable", tm.ReachableFraction(), ref.ReachableFraction()},
				{"avg route length", tm.avgLen, ref.avgLen},
				{"max link load", tm.maxNorm, ref.maxNorm},
			} {
				if !close(agg.intree, agg.mesh) {
					t.Errorf("%s: in-tree %.12f vs prefix sums %.12f", agg.name, agg.intree, agg.mesh)
				}
			}
			for _, net := range []noc.Network{noc.XY, noc.YX} {
				g.All(func(c geom.Coord) {
					for _, d := range geom.Dirs() {
						i := g.Index(c)*tm.np + int(d)
						if a, b := tm.norm[net][i], ref.norm[net][i]; !close(a, b) {
							t.Errorf("link load %v %v %v: in-tree %.12f vs prefix sums %.12f", net, c, d, a, b)
						}
					}
				})
			}
		})
	}
}

// The accuracy table is one check per property over every topology in
// noc.TopologyNames(), with the same budget for each. The mesh cases
// run under TestAccuracy* (subtests named by fault map), the others
// under TestTopoAccuracy* (subtests named topology/fault map).

// forAccuracyCases runs check on the Fig. 7 fault maps for the mesh
// alone (mesh) or for every other topology (!mesh).
func forAccuracyCases(t *testing.T, mesh bool, check func(t *testing.T, topo string, fm *fault.Map)) {
	for _, topo := range noc.TopologyNames() {
		if (topo == noc.TopoMesh) != mesh {
			continue
		}
		for name, fm := range fig7Maps(t) {
			sub := name
			if !mesh {
				sub = topo + "/" + name
			}
			t.Run(sub, func(t *testing.T) { check(t, topo, fm) })
		}
	}
}

// Latency-throughput curves: the analytical sweep must track the
// measured curve point-by-point below saturation.
func checkThroughputCurve(t *testing.T, topo string, fm *fault.Map) {
	model := mustModel(t, topo, fm)
	cycle := cycleModel(topo, fm)
	sat := model.SaturationRate()
	rates := []float64{0.1 * sat, 0.3 * sat, 0.6 * sat}
	mpts, err := model.ThroughputCurve(context.Background(), rates)
	if err != nil {
		t.Fatal(err)
	}
	cpts, err := cycle.ThroughputCurve(context.Background(), rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if e := relErr(mpts[i].DeliveredRate, cpts[i].DeliveredRate); e > tolDelivered {
			t.Errorf("rate %.3f: delivered model %.4f vs cycle %.4f (rel %.3f > %.2f)",
				rates[i], mpts[i].DeliveredRate, cpts[i].DeliveredRate, e, tolDelivered)
		}
		if e := relErr(mpts[i].AvgLatency, cpts[i].AvgLatency); e > tolLatency {
			t.Errorf("rate %.3f: latency model %.2f vs cycle %.2f (rel %.3f > %.2f)",
				rates[i], mpts[i].AvgLatency, cpts[i].AvgLatency, e, tolLatency)
		}
	}
}

func TestAccuracyThroughputCurve(t *testing.T) { forAccuracyCases(t, true, checkThroughputCurve) }

func TestTopoAccuracyThroughputCurve(t *testing.T) { forAccuracyCases(t, false, checkThroughputCurve) }

// Saturation throughput: closed-form capacity (including the
// credit-capacity normalization of long links) vs the measured
// delivered-rate plateau.
func checkSaturation(t *testing.T, topo string, fm *fault.Map) {
	model := mustModel(t, topo, fm)
	cycle := cycleModel(topo, fm)
	// The plateau delivers only the reachable fraction of the
	// capacity the hottest link admits; compare like with like.
	analytic := model.SaturationRate() * model.ReachableFraction()
	measured := cycle.SaturationRate()
	if e := relErr(analytic, measured); e > tolSat {
		t.Errorf("saturation: model %.4f vs measured plateau %.4f (rel %.3f > %.2f)",
			analytic, measured, e, tolSat)
	}
}

func TestAccuracySaturation(t *testing.T) { forAccuracyCases(t, true, checkSaturation) }

func TestTopoAccuracySaturation(t *testing.T) { forAccuracyCases(t, false, checkSaturation) }
