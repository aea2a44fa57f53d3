package core

import (
	"fmt"
	"math"

	"waferscale/internal/chipio"
	"waferscale/internal/clock"
	"waferscale/internal/fault"
	"waferscale/internal/jtag"
	"waferscale/internal/pdn"
)

// Extended analyses that tie the per-section models together: the LDO
// transient against the worst droop-map input, the voltage-frequency
// closure of the 300 MHz operating point, multi-generator clock
// placement, KGD screening economics and the I/O power budget.

// TransientReport is the dynamic regulation result.
type TransientReport struct {
	WorstInputV float64 // LDO input at the array center
	UndershootV float64
	InWindow    bool
	MinDecapF   float64 // smallest decap that still holds the window
}

// AnalyzeTransient runs the load-step simulation at the worst-case LDO
// input of the solved droop map.
func (d *Design) AnalyzeTransient(power *PowerReport) (*TransientReport, error) {
	cfg := pdn.DefaultTransient()
	cfg.LDO = d.LDO
	cfg.VinV = power.MinVolt
	res, err := pdn.SimulateTransient(cfg)
	if err != nil {
		return nil, err
	}
	min, err := pdn.MinDecapForWindow(cfg)
	if err != nil {
		return nil, err
	}
	return &TransientReport{
		WorstInputV: power.MinVolt,
		UndershootV: res.UndershootV,
		InWindow:    res.InWindow,
		MinDecapF:   min,
	}, nil
}

// FrequencyReport closes the loop from droop to clock frequency.
type FrequencyReport struct {
	WorstRegulatedV float64
	SystemFMaxHz    float64
	NominalOK       bool // the Table I 300 MHz point is sustainable
	PLLCeilingOK    bool // 400 MHz would NOT be sustainable at worst case
}

// AnalyzeFrequency verifies the operating point against the solved
// droop map.
func (d *Design) AnalyzeFrequency(power *PowerReport) (*FrequencyReport, error) {
	worst := math.Inf(1)
	for _, vin := range power.Solution.Volts {
		vout, ok := d.LDO.Output(vin)
		if !ok {
			return nil, fmt.Errorf("core: tile out of regulation at %.3f V input", vin)
		}
		if vout < worst {
			worst = vout
		}
	}
	fm := pdn.DefaultFreqModel()
	rep := &FrequencyReport{
		WorstRegulatedV: worst,
		SystemFMaxHz:    fm.SystemFMax(worst),
	}
	rep.NominalOK = fm.CheckOperatingPoint(d.Cfg.FreqHz, worst) == nil
	rep.PLLCeilingOK = fm.CheckOperatingPoint(d.Cfg.MaxFreqHz, worst) == nil
	return rep, nil
}

// PlacementReport wraps the generator-placement optimization.
type PlacementReport struct {
	Single clock.PlacementResult
	Multi  clock.PlacementResult
	K      int
}

// AnalyzePlacement places 1 and k generators on the fault map.
func (d *Design) AnalyzePlacement(fm *fault.Map, k int) (*PlacementReport, error) {
	one, err := clock.PlaceGenerators(fm, 1)
	if err != nil {
		return nil, err
	}
	multi, err := clock.PlaceGenerators(fm, k)
	if err != nil {
		return nil, err
	}
	return &PlacementReport{Single: one, Multi: multi, K: k}, nil
}

// KGDReport summarizes pre-bond screening economics for the wafer.
type KGDReport struct {
	DieYield         float64
	FaultySitesNoKGD float64
	FaultySitesKGD   float64
}

// AnalyzeKGD evaluates the Section VII.A case for known-good dies.
func (d *Design) AnalyzeKGD(dieYield float64) (*KGDReport, error) {
	if dieYield <= 0 || dieYield > 1 {
		return nil, fmt.Errorf("core: die yield %.3f outside (0,1]", dieYield)
	}
	bond := chipio.BondConfig{
		PillarYield:    d.PillarYield,
		PillarsPerPad:  d.PillarsPerPad,
		PadsPerChiplet: d.Cfg.Compute.NumIOs,
	}
	out := jtag.CompareKGD(d.Cfg.Chiplets(), dieYield, bond.ChipletYield())
	return &KGDReport{
		DieYield:         dieYield,
		FaultySitesNoKGD: out.FaultyWithoutKGD,
		FaultySitesKGD:   out.FaultyWithKGD,
	}, nil
}

// IOPowerReport is the interconnect energy budget.
type IOPowerReport struct {
	SiIFPowerW       float64
	OffPackagePowerW float64
	Advantage        float64
}

// AnalyzeIOPower evaluates the full network bandwidth against Si-IF
// and conventional link energies.
func (d *Design) AnalyzeIOPower() *IOPowerReport {
	bw := d.Cfg.NetworkBandwidth()
	b := chipio.ComputeIOPower(chipio.DefaultIOCell(), 500, bw, d.Cfg.PeakWaferPowerW())
	off := chipio.OffPackageComparison(bw)
	return &IOPowerReport{
		SiIFPowerW:       b.PowerW,
		OffPackagePowerW: off,
		Advantage:        off / b.PowerW,
	}
}
