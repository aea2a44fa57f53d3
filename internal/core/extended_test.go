package core

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
)

// analyzePower solves the default design's droop map.
func analyzePower(t *testing.T) (*Design, *PowerReport) {
	t.Helper()
	d := NewDesign()
	power, err := d.AnalyzePower()
	if err != nil {
		t.Fatal(err)
	}
	return d, power
}

func TestAnalyzeTransient(t *testing.T) {
	d, power := analyzePower(t)
	rep, err := d.AnalyzeTransient(power)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InWindow {
		t.Error("worst-case transient leaves the regulation window")
	}
	if rep.WorstInputV < 1.35 || rep.WorstInputV > 1.45 {
		t.Errorf("worst input = %.3f V", rep.WorstInputV)
	}
	if rep.MinDecapF <= 0 || rep.MinDecapF > 20e-9 {
		t.Errorf("min decap = %.3g F; the 20 nF budget should suffice", rep.MinDecapF)
	}
	if rep.UndershootV <= 0 || rep.UndershootV > 0.1 {
		t.Errorf("undershoot = %.3f V", rep.UndershootV)
	}
}

// TestAnalyzeFrequency verifies the Table I operating point: 300 MHz
// closes at the worst regulated tile, the 400 MHz PLL ceiling does not.
func TestAnalyzeFrequency(t *testing.T) {
	d, power := analyzePower(t)
	rep, err := d.AnalyzeFrequency(power)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NominalOK {
		t.Error("300 MHz does not close at the worst tile")
	}
	if rep.PLLCeilingOK {
		t.Error("400 MHz should not close at the regulation floor")
	}
	if rep.SystemFMaxHz < 300e6 || rep.SystemFMaxHz > 400e6 {
		t.Errorf("system fmax = %.0f MHz, want between the operating point and the PLL ceiling",
			rep.SystemFMaxHz/1e6)
	}
	if rep.WorstRegulatedV < 1.0 || rep.WorstRegulatedV > 1.2 {
		t.Errorf("worst regulated = %.3f V", rep.WorstRegulatedV)
	}
}

func TestAnalyzePlacement(t *testing.T) {
	d := NewDesign()
	fm := fault.Random(d.Cfg.Grid(), 5, rand.New(rand.NewSource(1)))
	rep, err := d.AnalyzePlacement(fm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multi.MaxHops >= rep.Single.MaxHops {
		t.Errorf("4 generators (%d hops) not better than 1 (%d)",
			rep.Multi.MaxHops, rep.Single.MaxHops)
	}
}

func TestAnalyzeKGD(t *testing.T) {
	d := NewDesign()
	rep, err := d.AnalyzeKGD(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultySitesNoKGD < 150 || rep.FaultySitesNoKGD > 250 {
		t.Errorf("unscreened faulty sites = %.0f", rep.FaultySitesNoKGD)
	}
	if rep.FaultySitesKGD > 1 {
		t.Errorf("screened faulty sites = %.2f", rep.FaultySitesKGD)
	}
	if _, err := d.AnalyzeKGD(0); err == nil {
		t.Error("zero die yield accepted")
	}
	if _, err := d.AnalyzeKGD(1.5); err == nil {
		t.Error(">1 die yield accepted")
	}
}

func TestAnalyzeIOPower(t *testing.T) {
	rep := NewDesign().AnalyzeIOPower()
	if rep.SiIFPowerW < 3 || rep.SiIFPowerW > 8 {
		t.Errorf("Si-IF I/O power = %.2f W", rep.SiIFPowerW)
	}
	if rep.Advantage < 50 {
		t.Errorf("Si-IF advantage = %.0fx, want large", rep.Advantage)
	}
}
