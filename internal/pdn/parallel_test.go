package pdn

import (
	"math"
	"runtime"
	"testing"

	"waferscale/internal/geom"
)

// TestSolveParallelMatchesSerial is the differential test behind the
// parallel engine: the red-black schedule must produce a bit-identical
// voltage map at every worker count, because node updates within one
// color only read the other color. Any divergence here means a data
// race or a schedule-dependent float path crept in.
func TestSolveParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(33, 29), 0.27) // odd, non-square on purpose
	cfg.Workers = 1
	ref, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 13} {
		c := DefaultConfig(geom.NewGrid(33, 29), 0.27)
		c.Workers = workers
		sol, err := Solve(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sol.Sweeps != ref.Sweeps {
			t.Errorf("workers=%d: %d sweeps, serial took %d", workers, sol.Sweeps, ref.Sweeps)
		}
		for i := range ref.Volts {
			if sol.Volts[i] != ref.Volts[i] {
				t.Fatalf("workers=%d: node %d = %.17g, serial %.17g (not bit-identical)",
					workers, i, sol.Volts[i], ref.Volts[i])
			}
		}
	}
}

// TestSolveParallelWithInteriorSupplies: the differential also holds
// when Dirichlet nodes sit mid-array (TWV scheme), where fixed nodes
// interleave with both colors.
func TestSolveParallelWithInteriorSupplies(t *testing.T) {
	mk := func(workers int) *Solution {
		cfg := DefaultConfig(geom.NewGrid(24, 24), 0.29)
		cfg.InteriorSupplies = twvSupplies(cfg.Grid, 6)
		cfg.Workers = workers
		sol, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	ref := mk(1)
	for _, workers := range []int{0, 3, 8} {
		sol := mk(workers)
		for i := range ref.Volts {
			if sol.Volts[i] != ref.Volts[i] {
				t.Fatalf("workers=%d: node %d differs from serial", workers, i)
			}
		}
	}
}

// TestResidualConvergenceRegression is the satellite bugfix regression:
// converging on the scaled residual (not the over-relaxed update delta)
// must land the reported min droop within 1 mV of a tight-tolerance
// reference solve at the default 1 uV tolerance.
func TestResidualConvergenceRegression(t *testing.T) {
	grid := geom.NewGrid(32, 32)
	tight := DefaultConfig(grid, 0.29)
	tight.Tolerance = 1e-10
	ref, err := Solve(tight)
	if err != nil {
		t.Fatal(err)
	}
	refMin, _ := ref.MinVolt()

	def, err := Solve(DefaultConfig(grid, 0.29))
	if err != nil {
		t.Fatal(err)
	}
	defMin, _ := def.MinVolt()
	if d := math.Abs(defMin - refMin); d > 1e-3 {
		t.Errorf("min droop at default tol off by %.3g V from tight-tolerance reference (want < 1 mV)", d)
	}
}

// TestSolveResidualReported: the solution's final scaled residual must
// be positive under load and below the configured tolerance.
func TestSolveResidualReported(t *testing.T) {
	sol, err := Solve(DefaultConfig(geom.NewGrid(16, 16), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Residual <= 0 || sol.Residual >= 1e-6 {
		t.Errorf("residual = %g, want in (0, 1e-6)", sol.Residual)
	}
	// The scaled residual bounds the raw KCL violation: at every
	// interior node |gLink*sum(Vn-Vi) - Itile| <= gLink*deg*tol.
	g := sol.Grid
	gLink := 1 / DefaultSheetResistanceOhm
	worst := 0.0
	g.All(func(c geom.Coord) {
		if g.OnEdge(c) {
			return
		}
		var net float64
		deg := 0.0
		for _, n := range c.Neighbors() {
			if g.In(n) {
				net += gLink * (sol.VoltAt(n) - sol.VoltAt(c))
				deg++
			}
		}
		if r := math.Abs(net-0.3) / (gLink * deg); r > worst {
			worst = r
		}
	})
	// The reported residual was measured pre-update on the final sweep;
	// the post-solve violation can only be smaller or comparable.
	if worst > 2e-6 {
		t.Errorf("post-solve scaled KCL violation %.3g V exceeds tolerance regime", worst)
	}
}

// TestSolveWorkersMoreThanRows: worker counts beyond the row count must
// clamp, not break or change results.
func TestSolveWorkersMoreThanRows(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(16, 5), 0.1)
	cfg.Workers = 64
	sol, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	ref, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Volts {
		if sol.Volts[i] != ref.Volts[i] {
			t.Fatalf("node %d differs with clamped workers", i)
		}
	}
}
