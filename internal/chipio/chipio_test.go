package chipio

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestSec5YieldHeadline reproduces the paper's Section V numbers: with
// over 2000 I/Os per chiplet at >99.99% per-pillar yield, going from
// one to two pillars per pad improves chiplet bonding yield from 81.46%
// to 99.998%, cutting the expected faulty chiplets on the 2048-chiplet
// wafer from 380 to about zero.
func TestSec5YieldHeadline(t *testing.T) {
	cmp := CompareRedundancy(0.9999, 2048, 2048)
	if math.Abs(cmp.SingleChipletYield-0.8146) > 0.002 {
		t.Errorf("single-pillar chiplet yield = %.4f, want ~0.8146", cmp.SingleChipletYield)
	}
	if math.Abs(cmp.DualChipletYield-0.99998) > 0.00001 {
		t.Errorf("dual-pillar chiplet yield = %.6f, want ~0.99998", cmp.DualChipletYield)
	}
	if math.Abs(cmp.SingleExpectedBad-380) > 3 {
		t.Errorf("single-pillar expected faulty = %.1f, want ~380", cmp.SingleExpectedBad)
	}
	if cmp.DualExpectedBad > 1 {
		t.Errorf("dual-pillar expected faulty = %.3f, want < 1", cmp.DualExpectedBad)
	}
}

func TestPadYieldMonotoneInRedundancy(t *testing.T) {
	f := func(pillars uint8) bool {
		n := int(pillars)%4 + 1
		a := BondConfig{PillarYield: 0.9999, PillarsPerPad: n, PadsPerChiplet: 2048}
		b := BondConfig{PillarYield: 0.9999, PillarsPerPad: n + 1, PadsPerChiplet: 2048}
		return b.PadYield() >= a.PadYield() && b.ChipletYield() >= a.ChipletYield()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBondConfigValidate(t *testing.T) {
	good := BondConfig{PillarYield: 0.9999, PillarsPerPad: 2, PadsPerChiplet: 2020}
	if err := good.Validate(); err != nil {
		t.Fatalf("default bond invalid: %v", err)
	}
	for _, bad := range []BondConfig{
		{PillarYield: 0, PillarsPerPad: 2, PadsPerChiplet: 10},
		{PillarYield: 1.5, PillarsPerPad: 2, PadsPerChiplet: 10},
		{PillarYield: 0.9999, PillarsPerPad: 0, PadsPerChiplet: 10},
		{PillarYield: 0.9999, PillarsPerPad: 2, PadsPerChiplet: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestPerfectPillarYield(t *testing.T) {
	b := BondConfig{PillarYield: 1, PillarsPerPad: 1, PadsPerChiplet: 100000}
	if b.ChipletYield() != 1 {
		t.Errorf("perfect pillars give chiplet yield %v", b.ChipletYield())
	}
	if b.ExpectedFaultyChiplets(2048) != 0 {
		t.Error("perfect yield should lose no chiplets")
	}
}

func TestTileLossProbability(t *testing.T) {
	compute := BondConfig{PillarYield: 0.9999, PillarsPerPad: 2, PadsPerChiplet: 2020}
	memory := BondConfig{PillarYield: 0.9999, PillarsPerPad: 2, PadsPerChiplet: 1250}
	p := TileLossProbability(compute, memory)
	want := 1 - compute.ChipletYield()*memory.ChipletYield()
	if p != want {
		t.Errorf("tile loss = %v, want %v", p, want)
	}
	if p <= 0 || p >= 1e-3 {
		t.Errorf("tile loss %v outside plausible range for dual pillars", p)
	}
	// Expected faulty tiles on the wafer stays well under one.
	if e := 1024 * p; e > 0.1 {
		t.Errorf("expected faulty tiles = %.3f", e)
	}
}

// TestSec5EnergyPerBit reproduces the 0.063 pJ/bit I/O energy figure
// at the worst-case 500 um link.
func TestSec5EnergyPerBit(t *testing.T) {
	cell := DefaultIOCell()
	e := cell.EnergyPerBitJ(500)
	if math.Abs(e-0.063e-12) > 0.002e-12 {
		t.Errorf("energy/bit = %.4g J, want ~0.063 pJ", e)
	}
	// Shorter Si-IF links (200-300 um) cost proportionally less.
	if e300 := cell.EnergyPerBitJ(300); math.Abs(e300-0.6*e) > 1e-18 {
		t.Errorf("energy not linear in length: %v vs %v", e300, 0.6*e)
	}
}

func TestESDContexts(t *testing.T) {
	cell := DefaultIOCell()
	if !cell.MeetsESD(BareDieAssembly) {
		t.Error("cell must meet the 100 V bare-die class")
	}
	if cell.MeetsESD(PackagedPart) {
		t.Error("stripped-down ESD cannot meet the 2 kV packaged class")
	}
	if PackagedPart.RequiredESDV() != 2000 || BareDieAssembly.RequiredESDV() != 100 {
		t.Error("ESD requirements wrong")
	}
}

func computeRing(t *testing.T) *PadRing {
	t.Helper()
	ring, err := BuildPadRing(RingConfig{
		DieWidthMM:    3.15,
		DieHeightMM:   2.4,
		SignalIOs:     2020,
		EssentialFrac: 0.55,
		ProbePads:     40,
		PillarsPerPad: 2,
	})
	if err != nil {
		t.Fatalf("build ring: %v", err)
	}
	return ring
}

func TestPadRingCounts(t *testing.T) {
	ring := computeRing(t)
	if got := len(ring.SignalPads()); got != 2020 {
		t.Fatalf("signal pads = %d, want 2020", got)
	}
	ess := ring.CountClass(ClassEssential)
	sec := ring.CountClass(ClassSecondary)
	if ess+sec != 2020 {
		t.Errorf("class counts %d+%d != 2020", ess, sec)
	}
	if math.Abs(float64(ess)-0.55*2020) > 1 {
		t.Errorf("essential count = %d, want ~%d", ess, int(0.55*2020))
	}
	probes := 0
	for _, p := range ring.Pads {
		if p.Probe {
			probes++
			if p.Pillars != 0 {
				t.Errorf("probe pad %s has pillars; probed pads must not be bonded", p.Name)
			}
		} else if p.Pillars != 2 {
			t.Errorf("signal pad %s has %d pillars, want 2", p.Name, p.Pillars)
		}
	}
	if probes != 40 {
		t.Errorf("probe pads = %d, want 40", probes)
	}
}

// TestSec5IOArea reproduces the "total I/O area is only 0.4 mm^2"
// figure for the compute chiplet.
func TestSec5IOArea(t *testing.T) {
	ring := computeRing(t)
	area := ring.TotalIOAreaMM2(DefaultIOCell())
	if area < 0.3 || area > 0.5 {
		t.Errorf("total I/O area = %.3f mm^2, want ~0.4 mm^2", area)
	}
	// I/O area is a tiny fraction of the 7.56 mm^2 die.
	if frac := area / (3.15 * 2.4); frac > 0.07 {
		t.Errorf("I/O area fraction = %.3f, should be small", frac)
	}
}

func TestPadGeometryFig5(t *testing.T) {
	ring := computeRing(t)
	for _, p := range ring.SignalPads()[:10] {
		if p.WidthUM != 7 {
			t.Errorf("pad width = %g um, want 7", p.WidthUM)
		}
		// Two pillars at 10 um pitch orthogonal to the edge need a
		// taller-than-wide pad.
		if p.HeightUM <= p.WidthUM {
			t.Errorf("dual-pillar pad %s not elongated: %gx%g", p.Name, p.WidthUM, p.HeightUM)
		}
	}
}

func TestPadRingCapacityError(t *testing.T) {
	_, err := BuildPadRing(RingConfig{
		DieWidthMM: 0.2, DieHeightMM: 0.2,
		SignalIOs: 2020, EssentialFrac: 0.5, PillarsPerPad: 2,
	})
	if err == nil {
		t.Fatal("tiny die accepted 2020 I/Os")
	}
	if !strings.Contains(err.Error(), "fits only") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPadRingConfigErrors(t *testing.T) {
	base := RingConfig{DieWidthMM: 3, DieHeightMM: 2, SignalIOs: 100, EssentialFrac: 0.5, PillarsPerPad: 2}
	cases := []func(*RingConfig){
		func(c *RingConfig) { c.DieWidthMM = 0 },
		func(c *RingConfig) { c.SignalIOs = 0 },
		func(c *RingConfig) { c.EssentialFrac = 1.5 },
		func(c *RingConfig) { c.PillarsPerPad = 0 },
		func(c *RingConfig) { c.PillarsPerPad = 3 },
	}
	for i, mutate := range cases {
		c := base
		mutate(&c)
		if _, err := BuildPadRing(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestSec8SingleLayerFallback reproduces Section VIII: with one routing
// layer the system survives on the essential I/O set with 2 of 5 banks
// — a 60% shared-memory capacity reduction.
func TestSec8SingleLayerFallback(t *testing.T) {
	ring := computeRing(t)
	rep := ring.SingleLayerFallback(5, 2)
	if !rep.SystemAlive {
		t.Error("fallback system must stay alive")
	}
	if rep.CapacityLossPct != 60 {
		t.Errorf("capacity loss = %.0f%%, want 60%%", rep.CapacityLossPct)
	}
	if rep.SharedBanksKept != 2 || rep.SharedBanksTotal != 5 {
		t.Errorf("banks = %d/%d", rep.SharedBanksKept, rep.SharedBanksTotal)
	}
	if rep.UsableIOs == 0 || rep.LostIOs == 0 {
		t.Errorf("fallback I/O split = %d usable / %d lost", rep.UsableIOs, rep.LostIOs)
	}
	if rep.UsableIOs+rep.LostIOs != 2020 {
		t.Errorf("I/O split does not cover all pads")
	}
	// Degenerate: no banks at all.
	dead := ring.SingleLayerFallback(0, 0)
	if dead.SystemAlive {
		t.Error("no banks should not be alive")
	}
}

// TestProbePadsProbeable: every probe pad sits at probe-card pitch from
// every other (the reason fine-pitch pads cannot be probed: probe pitch
// is >50 um while the signal pads sit at 10 um).
func TestProbePadsProbeable(t *testing.T) {
	ring := computeRing(t)
	var probes []Pad
	for _, p := range ring.Pads {
		if p.Probe {
			probes = append(probes, p)
		}
	}
	for i, a := range probes {
		for _, b := range probes[i+1:] {
			if d := a.Center.Manhattan(b.Center); d < ProbePadPitchUM {
				t.Errorf("probe pads %s and %s only %.1f um apart (< %g um probe pitch)", a.Name, b.Name, d, ProbePadPitchUM)
			}
		}
	}
}

func TestSignalClassString(t *testing.T) {
	if ClassEssential.String() != "essential" || ClassSecondary.String() != "secondary" {
		t.Error("class strings wrong")
	}
}

func TestMemoryChipletRing(t *testing.T) {
	ring, err := BuildPadRing(RingConfig{
		DieWidthMM:    3.15,
		DieHeightMM:   1.1,
		SignalIOs:     1250,
		EssentialFrac: 0.5,
		ProbePads:     24,
		PillarsPerPad: 2,
	})
	if err != nil {
		t.Fatalf("memory chiplet ring: %v", err)
	}
	if got := len(ring.SignalPads()); got != 1250 {
		t.Errorf("memory chiplet pads = %d, want 1250", got)
	}
}
