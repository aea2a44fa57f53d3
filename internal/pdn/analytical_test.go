package pdn

import (
	"math"
	"testing"

	"waferscale/internal/geom"
)

// The closed-form droop map must agree with the converged SOR solve to
// within the solver's own tolerance — the series solves the identical
// discrete system, so any systematic gap is a bug, not model error.
func TestEstimateDroopMatchesSolve(t *testing.T) {
	for _, side := range []int{8, 15, 32} {
		cfg := DefaultConfig(geom.NewGrid(side, side), 0.29)
		sol, err := Solve(cfg)
		if err != nil {
			t.Fatalf("side %d: Solve: %v", side, err)
		}
		est, err := EstimateDroop(cfg)
		if err != nil {
			t.Fatalf("side %d: EstimateDroop: %v", side, err)
		}
		min, at := sol.MinVolt()
		if d := math.Abs(est.MinVolt - min); d > 1e-4 {
			t.Errorf("side %d: analytic min %.6f V vs SOR %.6f V (|d|=%.2g)", side, est.MinVolt, min, d)
		}
		if av := sol.VoltAt(est.MinAt); math.Abs(av-min) > 1e-6 {
			t.Errorf("side %d: analytic MinAt %v holds %.6f V, SOR min %.6f at %v", side, est.MinAt, av, min, at)
		}
		// Off-center nodes too: the series is a full map, not a center fit.
		s := newSeries(cfg)
		for _, c := range []geom.Coord{geom.C(1, 1), geom.C(side/4, side/2), geom.C(side-2, 1)} {
			v := cfg.EdgeVolts + s.at(c.X, c.Y)
			if d := math.Abs(v - sol.VoltAt(c)); d > 1e-4 {
				t.Errorf("side %d: node %v analytic %.6f V vs SOR %.6f V", side, c, v, sol.VoltAt(c))
			}
		}
	}
}

// The calibration anchor: at the prototype operating point the paper's
// Fig. 2 droop (2.5 V edge to ~1.4 V center) must come out of the
// closed form exactly as it does from the solver.
func TestEstimateDroopPrototypeAnchor(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(32, 32), 0.29)
	est, err := EstimateDroop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.MinVolt < 1.30 || est.MinVolt > 1.50 {
		t.Errorf("prototype center voltage %.3f V outside the paper's ~1.4 V band", est.MinVolt)
	}
}

func TestEstimateDroopRejectsUncovered(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(8, 8), 0.29)
	cfg.InteriorSupplies = []geom.Coord{geom.C(4, 4)}
	if _, err := EstimateDroop(cfg); err == nil {
		t.Error("interior supplies accepted; the series solution does not model them")
	}
	bad := DefaultConfig(geom.NewGrid(2, 2), 0.29)
	if _, err := EstimateDroop(bad); err == nil {
		t.Error("2x2 grid accepted; no interior nodes exist")
	}
}
