package pdn

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"waferscale/internal/geom"
)

// tileCurrent is the paper's peak per-tile current: 350 mW at the
// fast-fast corner voltage of 1.21 V.
const tileCurrent = 0.350 / 1.21

func solve32(t *testing.T) *Solution {
	t.Helper()
	sol, err := Solve(DefaultConfig(geom.NewGrid(32, 32), tileCurrent))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return sol
}

// TestFig2CenterDroop reproduces the paper's Fig. 2 headline: chiplets
// at the edge receive 2.5 V, chiplets at the center roughly 1.4 V at
// peak draw.
func TestFig2CenterDroop(t *testing.T) {
	sol := solve32(t)
	min, at := sol.MinVolt()
	if min < 1.35 || min > 1.45 {
		t.Errorf("center voltage = %.3f V, want ~1.4 V", min)
	}
	if d := at.Manhattan(geom.C(15, 15)); d > 2 {
		t.Errorf("minimum at %v, want near array center", at)
	}
	max, _ := sol.MaxVolt()
	if max != 2.5 {
		t.Errorf("edge voltage = %.3f, want 2.5", max)
	}
}

// TestFig2ProfileShape checks the monotone droop from edge to center
// along a center row — the shape Fig. 2 sketches.
func TestFig2ProfileShape(t *testing.T) {
	sol := solve32(t)
	prof := sol.Profile(16)
	if prof[0] != 2.5 || prof[31] != 2.5 {
		t.Fatalf("profile endpoints %.3f/%.3f, want 2.5", prof[0], prof[31])
	}
	// Monotone decrease toward the middle, then increase.
	for x := 1; x <= 15; x++ {
		if prof[x] >= prof[x-1] {
			t.Errorf("profile not decreasing at x=%d: %.4f >= %.4f", x, prof[x], prof[x-1])
		}
	}
	for x := 17; x < 32; x++ {
		if prof[x] <= prof[x-1] {
			t.Errorf("profile not increasing at x=%d", x)
		}
	}
	// Symmetry about the center within solver tolerance.
	for x := 0; x < 16; x++ {
		if d := math.Abs(prof[x] - prof[31-x]); d > 1e-3 {
			t.Errorf("profile asymmetry at x=%d: %.4g", x, d)
		}
	}
}

func TestSolveZeroCurrentIsFlat(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(16, 16), 0)
	sol, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sol.Volts {
		if math.Abs(v-2.5) > 1e-9 {
			t.Fatalf("node %d = %v with no load", i, v)
		}
	}
	if loss := sol.ResistiveLossW(); loss != 0 {
		t.Errorf("loss = %v with no load", loss)
	}
}

func TestSolveDroopMonotoneInCurrent(t *testing.T) {
	g := geom.NewGrid(16, 16)
	prev := 2.5
	for _, i := range []float64{0.05, 0.15, 0.3, 0.6} {
		sol, err := Solve(DefaultConfig(g, i))
		if err != nil {
			t.Fatal(err)
		}
		min, _ := sol.MinVolt()
		if min >= prev {
			t.Errorf("droop not monotone: I=%.2f gives min %.3f >= %.3f", i, min, prev)
		}
		prev = min
	}
}

func TestSolveDroopMonotoneInSheetR(t *testing.T) {
	g := geom.NewGrid(16, 16)
	prev := 2.5
	for _, rs := range []float64{0.01, 0.03, 0.06, 0.1} {
		cfg := DefaultConfig(g, tileCurrent)
		cfg.SheetOhm = rs
		sol, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		min, _ := sol.MinVolt()
		if min >= prev {
			t.Errorf("droop not monotone in Rs=%.3f", rs)
		}
		prev = min
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(DefaultConfig(geom.NewGrid(2, 2), 0.1)); err == nil {
		t.Error("2x2 grid (no interior) accepted")
	}
	cfg := DefaultConfig(geom.NewGrid(8, 8), 0.1)
	cfg.EdgeVolts = 0
	if _, err := Solve(cfg); err == nil {
		t.Error("zero edge voltage accepted")
	}
	cfg = DefaultConfig(geom.NewGrid(8, 8), -1)
	if _, err := Solve(cfg); err == nil {
		t.Error("negative current accepted")
	}
	cfg = DefaultConfig(geom.NewGrid(8, 8), 0.1)
	cfg.SheetOhm = 0
	if _, err := Solve(cfg); err == nil {
		t.Error("zero sheet resistance accepted")
	}
	cfg = DefaultConfig(geom.NewGrid(8, 8), 0.1)
	cfg.InteriorSupplies = []geom.Coord{geom.C(99, 0)}
	if _, err := Solve(cfg); err == nil {
		t.Error("out-of-grid interior supply accepted")
	}
}

func TestSolveNoConvergence(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(32, 32), tileCurrent)
	cfg.MaxSweeps = 2
	_, err := Solve(cfg)
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// TestKirchhoffResidual verifies the solution satisfies current
// conservation at every interior node.
func TestKirchhoffResidual(t *testing.T) {
	sol := solve32(t)
	g := sol.Grid
	gLink := 1 / DefaultSheetResistanceOhm
	g.All(func(c geom.Coord) {
		if g.OnEdge(c) {
			return
		}
		var net float64
		for _, n := range c.Neighbors() {
			net += gLink * (sol.VoltAt(n) - sol.VoltAt(c))
		}
		if math.Abs(net-tileCurrent) > 1e-3 {
			t.Fatalf("KCL residual at %v: %.6f A vs sink %.6f A", c, net, tileCurrent)
		}
	})
}

// TestEnergyBalance: power in from the boundary equals load power plus
// resistive loss.
func TestEnergyBalance(t *testing.T) {
	sol := solve32(t)
	g := sol.Grid
	interior := float64((g.W - 2) * (g.H - 2))
	loadW := 0.0
	g.All(func(c geom.Coord) {
		if !g.OnEdge(c) {
			loadW += tileCurrent * sol.VoltAt(c)
		}
	})
	// Power entering from the fixed boundary nodes.
	gLink := 1 / DefaultSheetResistanceOhm
	var injected float64
	g.All(func(c geom.Coord) {
		if !g.OnEdge(c) {
			return
		}
		for _, n := range c.Neighbors() {
			if g.In(n) && !g.OnEdge(n) {
				injected += gLink * (sol.VoltAt(c) - sol.VoltAt(n)) * sol.VoltAt(c)
			}
		}
	})
	// Resistive loss counts only interior links here, so compare the
	// full identity: injected = load + loss(interior-to-interior and
	// boundary-to-interior links).
	var loss float64
	g.All(func(c geom.Coord) {
		for _, d := range []geom.Dir{geom.East, geom.North} {
			n := c.Step(d)
			if !g.In(n) {
				continue
			}
			if g.OnEdge(c) && g.OnEdge(n) {
				continue // both fixed: no current flow modelled between them
			}
			dv := sol.VoltAt(c) - sol.VoltAt(n)
			loss += gLink * dv * dv
		}
	})
	if math.Abs(injected-(loadW+loss)) > 0.05*injected {
		t.Errorf("energy imbalance: in %.1f W, load %.1f W + loss %.1f W", injected, loadW, loss)
	}
	_ = interior
}

// TestTWVSuppliesFlattenDroop: the future TWV scheme (interior supply
// nodes) must dramatically reduce the center droop.
func TestTWVSuppliesFlattenDroop(t *testing.T) {
	g := geom.NewGrid(32, 32)
	edge, err := Solve(DefaultConfig(g, tileCurrent))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(g, tileCurrent)
	cfg.InteriorSupplies = twvSupplies(g, 4)
	twv, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eMin, _ := edge.MinVolt()
	tMin, _ := twv.MinVolt()
	if tMin <= eMin+0.5 {
		t.Errorf("TWV min %.3f should be far above edge-only min %.3f", tMin, eMin)
	}
	if tMin < 2.3 {
		t.Errorf("TWV droop %.3f V too large for 4-tile via pitch", 2.5-tMin)
	}
}

func TestCalibrateSheetResistance(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(32, 32), tileCurrent)
	rs, err := CalibrateSheetResistance(cfg, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs-DefaultSheetResistanceOhm) > 0.002 {
		t.Errorf("calibrated Rs = %.4f, constant is %.4f", rs, DefaultSheetResistanceOhm)
	}
	cfg.SheetOhm = rs
	sol, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := sol.MinVolt()
	if math.Abs(min-1.4) > 0.005 {
		t.Errorf("center voltage at calibrated Rs = %.4f, want 1.4", min)
	}
}

func TestCalibrateRejectsBadTarget(t *testing.T) {
	cfg := DefaultConfig(geom.NewGrid(8, 8), 0.1)
	if _, err := CalibrateSheetResistance(cfg, 3.0); err == nil {
		t.Error("target above edge voltage accepted")
	}
	if _, err := CalibrateSheetResistance(cfg, -1); err == nil {
		t.Error("negative target accepted")
	}
}

func TestDroopMapString(t *testing.T) {
	sol, err := Solve(DefaultConfig(geom.NewGrid(4, 4), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	s := sol.DroopMapString()
	lines := 0
	for _, ch := range s {
		if ch == '\n' {
			lines++
		}
	}
	if lines != 4 {
		t.Errorf("droop map has %d rows, want 4", lines)
	}
}

func TestLDOOutput(t *testing.T) {
	l := DefaultLDO()
	if err := l.Validate(); err != nil {
		t.Fatalf("default LDO invalid: %v", err)
	}
	cases := []struct {
		vin  float64
		vout float64
		ok   bool
	}{
		{2.5, 1.1, true},   // full headroom: nominal
		{1.4, 1.1, true},   // paper's center-of-wafer input: still nominal
		{1.3, 1.1, true},   // exactly nominal+dropout
		{1.25, 1.05, true}, // dropout operation, inside window
		{1.2, 1.0, true},   // boundary of the window
		{1.1, 0.9, false},  // regulation lost
	}
	for _, c := range cases {
		vout, ok := l.Output(c.vin)
		if math.Abs(vout-c.vout) > 1e-12 || ok != c.ok {
			t.Errorf("Output(%.2f) = %.3f,%v; want %.3f,%v", c.vin, vout, ok, c.vout, c.ok)
		}
	}
}

func TestLDOEfficiency(t *testing.T) {
	l := DefaultLDO()
	// At 2.5 V input, efficiency is 1.1/2.5 = 44%; at 1.4 V it's 78.6%.
	if e := l.Efficiency(2.5); math.Abs(e-0.44) > 1e-9 {
		t.Errorf("eff(2.5) = %v", e)
	}
	if e := l.Efficiency(1.4); math.Abs(e-1.1/1.4) > 1e-9 {
		t.Errorf("eff(1.4) = %v", e)
	}
	if e := l.Efficiency(0); e != 0 {
		t.Errorf("eff(0) = %v", e)
	}
}

func TestLDOValidateErrors(t *testing.T) {
	bad := DefaultLDO()
	bad.MinOutV = 1.3
	if bad.Validate() == nil {
		t.Error("inverted output window accepted")
	}
	bad = DefaultLDO()
	bad.DropoutV = -0.1
	if bad.Validate() == nil {
		t.Error("negative dropout accepted")
	}
	bad = DefaultLDO()
	bad.MinInV = 1.0
	if bad.Validate() == nil {
		t.Error("min input below nominal+dropout accepted")
	}
	bad = DefaultLDO()
	bad.MaxInV = 1.0
	if bad.Validate() == nil {
		t.Error("empty input range accepted")
	}
	bad = DefaultLDO()
	bad.MaxPowerW = 0
	if bad.Validate() == nil {
		t.Error("zero power accepted")
	}
}

// TestDecapDerivation reproduces the paper's 20 nF per-tile budget:
// 200 mA worst-case step, ~10 ns loop response, 0.1 V droop budget.
func TestDecapDerivation(t *testing.T) {
	c := RequiredDecapF(0.200, 10e-9, 0.1)
	if math.Abs(c-20e-9) > 1e-15 {
		t.Errorf("required decap = %.3g F, want 20 nF", c)
	}
	droop := TransientDroop(0.200, 10e-9, 20e-9)
	if math.Abs(droop-0.1) > 1e-12 {
		t.Errorf("droop at 20 nF = %.3g V, want 0.1 V", droop)
	}
	if !math.IsInf(TransientDroop(0.2, 1e-9, 0), 1) {
		t.Error("zero decap should droop infinitely")
	}
	if !math.IsInf(RequiredDecapF(0.2, 1e-9, 0), 1) {
		t.Error("zero droop budget should need infinite decap")
	}
}

// TestRegulationAcrossDroopMap: every tile of the solved 32x32 droop
// map must stay inside the LDO's regulation envelope — the paper's
// "regulated voltage is always between 1.0 V and 1.2 V".
func TestRegulationAcrossDroopMap(t *testing.T) {
	sol := solve32(t)
	rep := CheckRegulation(sol, DefaultLDO(), 0.350)
	if rep.TilesOutOfRange != 0 {
		t.Errorf("%d tiles out of regulation", rep.TilesOutOfRange)
	}
	if rep.TilesInRegulation != 1024 {
		t.Errorf("tiles in regulation = %d, want 1024", rep.TilesInRegulation)
	}
	if rep.WorstInputV < 1.35 {
		t.Errorf("worst input %.3f below LDO tracked range", rep.WorstInputV)
	}
	if rep.BestEfficiency <= rep.WorstEfficiency {
		t.Error("efficiency spread inverted")
	}
	if rep.MeanEfficiency < rep.WorstEfficiency || rep.MeanEfficiency > rep.BestEfficiency {
		t.Error("mean efficiency outside [worst, best]")
	}
	if rep.TotalLDOLossW <= 0 {
		t.Error("LDO loss must be positive under load")
	}
}

func TestStrategyComparison(t *testing.T) {
	in := DefaultStrategyInput(geom.NewGrid(32, 32), 0.350, 1.21)
	results, err := Compare(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d strategies", len(results))
	}
	byName := map[Strategy]StrategyResult{}
	for _, r := range results {
		byName[r.Strategy] = r
	}
	ldo, buck, twv := byName[StrategyEdgeLDO], byName[StrategyEdgeBuck], byName[StrategyTWV]

	// Paper Section III shape: the buck scheme cuts plane current
	// roughly by the voltage ratio and its IR loss correspondingly,
	// but costs 25-30% area in on-wafer passives; the LDO scheme keeps
	// the array regular but burns headroom in the LDOs.
	if ldo.WaferCurrentA < 280 || ldo.WaferCurrentA > 300 {
		t.Errorf("LDO wafer current = %.1f A, want ~290 A", ldo.WaferCurrentA)
	}
	if ratio := ldo.WaferCurrentA / buck.WaferCurrentA; ratio < 8 || ratio > 13 {
		t.Errorf("current reduction ratio = %.1f, want ~10-12x", ratio)
	}
	if buck.ResistiveLossW >= ldo.ResistiveLossW/10 {
		t.Errorf("buck IR loss %.2f W should be <<10%% of LDO's %.2f W",
			buck.ResistiveLossW, ldo.ResistiveLossW)
	}
	if buck.AreaOverheadPct < 25 || buck.AreaOverheadPct > 30 {
		t.Errorf("buck area overhead = %.1f%%, want 25-30%%", buck.AreaOverheadPct)
	}
	if ldo.AreaOverheadPct != 35 {
		t.Errorf("LDO area overhead = %.1f%%, want 35%% (decap)", ldo.AreaOverheadPct)
	}
	if !ldo.RegulationOK {
		t.Error("chosen scheme must regulate every tile")
	}
	if ldo.MinTileVolts < 1.35 || ldo.MinTileVolts > 1.45 {
		t.Errorf("LDO-scheme min tile voltage = %.3f, want ~1.4", ldo.MinTileVolts)
	}
	// TWVs flatten the droop far below the edge scheme's.
	if 2.5-twv.MinTileVolts > (2.5-ldo.MinTileVolts)/5 {
		t.Errorf("TWV droop %.3f not <<: edge droop %.3f",
			2.5-twv.MinTileVolts, 2.5-ldo.MinTileVolts)
	}
	// Sub-kW system: total edge power near the paper's 725 W for the
	// chosen scheme (delivered + losses at 2.5 V).
	totalW := ldo.DeliveredW + ldo.ResistiveLossW + ldo.RegulatorLossW
	if totalW < 650 || totalW > 800 {
		t.Errorf("edge power = %.0f W, want ~725 W", totalW)
	}

	table := FormatComparison(results)
	for _, want := range []string{"edge-2.5V+LDO", "edge-12V+buck", "TWV"} {
		if !strings.Contains(table, want) {
			t.Errorf("comparison table missing %q:\n%s", want, table)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyEdgeLDO.String() == "" || Strategy(9).String() == "" {
		t.Error("strategy strings must be non-empty")
	}
}

func TestEvaluateUnknownStrategy(t *testing.T) {
	_, err := Evaluate(Strategy(42), DefaultStrategyInput(geom.NewGrid(8, 8), 0.35, 1.21))
	if err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestSolveScalesQuick: property — doubling tile current doubles the
// droop (linearity of the resistive network).
func TestSolveScalesQuick(t *testing.T) {
	g := geom.NewGrid(12, 12)
	f := func(seed uint8) bool {
		i := 0.01 + float64(seed%50)/100
		a, err1 := Solve(DefaultConfig(g, i))
		b, err2 := Solve(DefaultConfig(g, 2*i))
		if err1 != nil || err2 != nil {
			return false
		}
		aMin, _ := a.MinVolt()
		bMin, _ := b.MinVolt()
		return math.Abs((2.5-bMin)-2*(2.5-aMin)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestSolveTerminalProgress: both terminal paths — convergence and
// sweep exhaustion — must close the progress stream with the final
// sweep count and residual instead of leaving it stale at the last
// progressEvery boundary.
func TestSolveTerminalProgress(t *testing.T) {
	// Converged solve: the last tick reports exactly Solution.Sweeps and
	// Solution.Residual, even though convergence lands mid-interval.
	cfg := DefaultConfig(geom.NewGrid(16, 16), tileCurrent)
	var sweeps []int
	var resids []float64
	cfg.Progress = func(s int, r float64) { sweeps = append(sweeps, s); resids = append(resids, r) }
	sol, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Sweeps%progressEvery == 0 {
		t.Fatalf("solve converged at %d sweeps, on a progress tick; the check needs a mid-interval convergence", sol.Sweeps)
	}
	if len(sweeps) == 0 {
		t.Fatal("no Progress call on a converging solve")
	}
	if got := sweeps[len(sweeps)-1]; got != sol.Sweeps {
		t.Errorf("last progress sweep = %d, solution converged at %d", got, sol.Sweeps)
	}
	if got := resids[len(resids)-1]; got != sol.Residual {
		t.Errorf("last progress residual = %g, solution residual %g", got, sol.Residual)
	}

	// Non-convergence: MaxSweeps off the progressEvery grid still ends
	// the stream at exactly MaxSweeps. No residual reaches 1e-300 V.
	cfg2 := DefaultConfig(geom.NewGrid(32, 32), tileCurrent)
	cfg2.Tolerance = 1e-300
	cfg2.MaxSweeps = progressEvery + 7
	sweeps = nil
	cfg2.Progress = func(s int, r float64) { sweeps = append(sweeps, s) }
	if _, err := Solve(cfg2); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if want := []int{progressEvery, progressEvery + 7}; len(sweeps) != 2 || sweeps[0] != want[0] || sweeps[1] != want[1] {
		t.Errorf("progress sweeps = %v, want %v", sweeps, want)
	}
}
