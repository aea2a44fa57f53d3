package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func TestNewDesignValid(t *testing.T) {
	if err := NewDesign().Validate(); err != nil {
		t.Fatalf("prototype design invalid: %v", err)
	}
}

func TestValidateCatchesBrokenParts(t *testing.T) {
	d := NewDesign()
	d.Cfg.CoresPerTile = 0
	if d.Validate() == nil {
		t.Error("broken architecture accepted")
	}
	d = NewDesign()
	d.LDO.DropoutV = -1
	if d.Validate() == nil {
		t.Error("broken LDO accepted")
	}
	d = NewDesign()
	d.Rules.WireWidthUM = 99
	if d.Validate() == nil {
		t.Error("broken rules accepted")
	}
	d = NewDesign()
	d.PillarYield = 2
	if d.Validate() == nil {
		t.Error("broken bond config accepted")
	}
}

// TestSpecTable1 verifies the rendered Table I carries the paper's
// headline values.
func TestSpecTable1(t *testing.T) {
	s := NewDesign().FormatSpec()
	for _, want := range []string{
		"1024",      // chiplet counts
		"14",        // cores per tile
		"14336",     // total cores
		"512 MiB",   // shared memory
		"64 KiB",    // private per core
		"4.3 TOPS",  // throughput
		"6.14 TB/s", // shared-memory bandwidth
		"9.83 TBps", // network bandwidth
		"2020(C)/1250(M)",
		"300 MHz/1.1V",
		"15100 mm2",
		// The paper rounds the wafer current to 290 A and prints 725 W;
		// the unrounded derivation (1024 x 0.35 W / 1.21 V x 2.5 V)
		// gives 740 W. We print the computed value.
		"740 W",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzePower(t *testing.T) {
	rep, err := NewDesign().AnalyzePower()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinVolt < 1.35 || rep.MinVolt > 1.45 {
		t.Errorf("center voltage = %.3f, want ~1.4", rep.MinVolt)
	}
	if rep.Regulation.TilesOutOfRange != 0 {
		t.Errorf("%d tiles out of regulation", rep.Regulation.TilesOutOfRange)
	}
	if rep.EdgePowerW < 650 || rep.EdgePowerW > 800 {
		t.Errorf("edge power = %.0f W, want ~725", rep.EdgePowerW)
	}
	if len(rep.Strategies) != 3 {
		t.Errorf("strategies = %d", len(rep.Strategies))
	}
}

func TestAnalyzeClockHealthy(t *testing.T) {
	d := NewDesign()
	fm := fault.NewMap(d.Cfg.Grid())
	rep, err := d.AnalyzeClock(fm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resiliency.ClockedTiles != 1024 {
		t.Errorf("clocked = %d", rep.Resiliency.ClockedTiles)
	}
	if rep.GeneratorChoices != 124 {
		t.Errorf("generator candidates = %d, want 124 edge tiles", rep.GeneratorChoices)
	}
	if rep.PassiveCDNMaxHz >= 1e6 {
		t.Errorf("passive CDN limit = %.3g Hz, should be sub-MHz", rep.PassiveCDNMaxHz)
	}
	if rep.NaiveKillDepth < 0 || rep.NaiveKillDepth > 10 {
		t.Errorf("naive kill depth = %d, want within 10", rep.NaiveKillDepth)
	}
	if rep.InvertedWorst > 0.05+1e-9 {
		t.Errorf("inverted worst duty = %v", rep.InvertedWorst)
	}
	if rep.DCCWorst > 0.011 {
		t.Errorf("DCC worst duty = %v", rep.DCCWorst)
	}
}

func TestAnalyzeClockFaultyDefaultGenerator(t *testing.T) {
	d := NewDesign()
	fm := fault.NewMap(d.Cfg.Grid())
	// Kill the default generator tile; the analysis must fall back to
	// another healthy edge tile (no single point of failure).
	fm.MarkFaulty(geom.C(0, 16))
	rep, err := d.AnalyzeClock(fm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resiliency.ClockedTiles != fm.HealthyCount() {
		t.Errorf("clocked = %d of %d healthy", rep.Resiliency.ClockedTiles, fm.HealthyCount())
	}
}

func TestAnalyzeClockNoEdgeLeft(t *testing.T) {
	d := NewDesign()
	d.Cfg.TilesX, d.Cfg.TilesY, d.Cfg.JTAGChains = 4, 4, 4
	fm := fault.NewMap(d.Cfg.Grid())
	for _, c := range fm.Grid().EdgeCoords() {
		fm.MarkFaulty(c)
	}
	if _, err := d.AnalyzeClock(fm); err == nil {
		t.Error("dead edge accepted")
	}
}

func TestAnalyzeYield(t *testing.T) {
	rep, err := NewDesign().AnalyzeYield()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparison.SingleChipletYield > 0.83 || rep.Comparison.SingleChipletYield < 0.80 {
		t.Errorf("single yield = %.4f", rep.Comparison.SingleChipletYield)
	}
	if rep.ExpectedBadTiles > 0.1 {
		t.Errorf("expected bad tiles = %.3f", rep.ExpectedBadTiles)
	}
	if rep.EnergyPerBitPJ < 0.06 || rep.EnergyPerBitPJ > 0.066 {
		t.Errorf("I/O energy = %.4f pJ/bit, want ~0.063", rep.EnergyPerBitPJ)
	}
	if rep.IOAreaMM2 < 0.3 || rep.IOAreaMM2 > 0.5 {
		t.Errorf("I/O area = %.2f mm2, want ~0.4", rep.IOAreaMM2)
	}
}

func TestAnalyzeNetwork(t *testing.T) {
	d := NewDesign()
	d.Cfg.TilesX, d.Cfg.TilesY, d.Cfg.JTAGChains = 16, 16, 16
	rep, err := d.AnalyzeNetwork(context.Background(), []int{2, 6}, 4, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fig6) != 2 {
		t.Fatalf("points = %d", len(rep.Fig6))
	}
	for _, p := range rep.Fig6 {
		if p.PctDual.Mean > p.PctSingle.Mean {
			t.Errorf("faults=%d: dual worse than single", p.Faults)
		}
	}
	if rep.Bandwidth.AggregateBps <= 0 {
		t.Error("bandwidth not computed")
	}
	if _, err := d.AnalyzeNetwork(context.Background(), []int{2}, 0, 7, nil); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestAnalyzeTest(t *testing.T) {
	rep, err := NewDesign().AnalyzeTest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleChainLoad < 2*time.Hour || rep.SingleChainLoad > 3*time.Hour {
		t.Errorf("single-chain load = %v", rep.SingleChainLoad)
	}
	if rep.ChainSpeedup < 30 {
		t.Errorf("chain speedup = %.1f", rep.ChainSpeedup)
	}
	if rep.BroadcastSpeedup != 14 {
		t.Errorf("broadcast speedup = %.1f", rep.BroadcastSpeedup)
	}
}

func TestAnalyzeSubstrate(t *testing.T) {
	rep, err := NewDesign().AnalyzeSubstrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReticlesX != 3 || rep.ReticlesY != 6 {
		t.Errorf("reticles = %dx%d, want 3x6", rep.ReticlesX, rep.ReticlesY)
	}
	if rep.DRCViolations != 0 {
		t.Errorf("DRC violations = %d", rep.DRCViolations)
	}
	if rep.RoutedNets != 490 {
		t.Errorf("routed nets = %d, want 490", rep.RoutedNets)
	}
	if !rep.FallbackAlive || rep.FallbackCapacityLoss != 60 {
		t.Errorf("fallback = alive %v, loss %.0f%%", rep.FallbackAlive, rep.FallbackCapacityLoss)
	}
}

func TestSweepArraySize(t *testing.T) {
	d := NewDesign()
	pts, err := d.SweepArraySizeCtx(context.Background(), []int{8, 16, 32, 48}, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Droop worsens monotonically with array size.
	for i := 1; i < len(pts); i++ {
		if pts[i].CenterVolt >= pts[i-1].CenterVolt {
			t.Errorf("droop not monotone at %d tiles", pts[i].Tiles)
		}
	}
	// The 32x32 prototype regulates; a 48x48 at the same per-tile power
	// falls out of the LDO's tracked range — the scale-up knee.
	if !pts[2].RegulationOK {
		t.Error("32x32 should regulate")
	}
	if pts[3].RegulationOK {
		t.Error("48x48 should NOT regulate with edge-only delivery")
	}
	if pts[3].Cores != 48*48*14 {
		t.Errorf("cores = %d", pts[3].Cores)
	}
	if s := FormatArraySweep(pts); !strings.Contains(s, "1024") {
		t.Errorf("sweep format:\n%s", s)
	}
}

func TestSweepPillarRedundancy(t *testing.T) {
	pts := NewDesign().SweepPillarRedundancy(3)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ChipletYield <= pts[i-1].ChipletYield {
			t.Error("yield not improving with redundancy")
		}
		if pts[i].PadHeightUM <= pts[i-1].PadHeightUM {
			t.Error("pad height should grow with pillars")
		}
	}
	if pts[0].ExpectedBad < 300 {
		t.Errorf("single-pillar expected bad = %.0f, want ~380", pts[0].ExpectedBad)
	}
	if pts[1].ExpectedBad > 1 {
		t.Errorf("dual-pillar expected bad = %.3f", pts[1].ExpectedBad)
	}
}

func TestSweepChains(t *testing.T) {
	pts, err := NewDesign().SweepChains([]int{1, 4, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LoadTime >= pts[i-1].LoadTime {
			t.Error("load time not improving with chains")
		}
	}
	if _, err := NewDesign().SweepChains([]int{7}); err == nil {
		t.Error("non-dividing chain count accepted")
	}
}

func TestSweepDecapTech(t *testing.T) {
	pts := NewDesign().SweepDecapTech()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// The prototype's planar decap costs ~35% of the tile.
	if pts[0].TileAreaPct < 30 || pts[0].TileAreaPct > 40 {
		t.Errorf("planar decap area = %.1f%%, want ~35%%", pts[0].TileAreaPct)
	}
	// Deep trench is 10x denser.
	if pts[1].TileAreaPct > pts[0].TileAreaPct/5 {
		t.Errorf("deep-trench decap area = %.1f%% not much better", pts[1].TileAreaPct)
	}
}

func TestWriteFullReport(t *testing.T) {
	d := NewDesign()
	fm := fault.NewMap(d.Cfg.Grid())
	fm.MarkFaulty(geom.C(10, 10))
	var buf bytes.Buffer
	if err := d.WriteFullReport(context.Background(), &buf, fm, 2, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Power delivery", "Clocking", "bonding yield",
		"Network resiliency", "Test infrastructure", "Substrate",
		"edge-2.5V+LDO", "broadcast mode",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Invalid design refuses to report.
	bad := NewDesign()
	bad.PillarYield = 0
	if err := bad.WriteFullReport(context.Background(), &buf, fm, 1, 1, nil); err == nil {
		t.Error("invalid design reported")
	}
	// A failing section (here the Monte Carlo) fails the report before
	// anything is written.
	buf.Reset()
	if err := d.WriteFullReport(context.Background(), &buf, fm, 0, 1, nil); err == nil || buf.Len() != 0 {
		t.Errorf("zero-trial report: err %v, %d bytes written", err, buf.Len())
	}
}
