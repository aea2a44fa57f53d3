package pdn

import (
	"fmt"
	"math"
)

// LDO is the behavioural model of the custom wide-input low-dropout
// regulator in every compute chiplet (paper Section III): it must
// produce a stable logic supply from a DC input anywhere between the
// array-center droop (~1.4 V) and the edge supply (2.5 V), keep the
// regulated output between 1.0 V and 1.2 V across corners, support
// 350 mW peak, and ride out 200 mA load steps within a few cycles using
// on-chip decoupling capacitance.
type LDO struct {
	NominalOutV float64 // regulation setpoint (paper: 1.1 V)
	MinOutV     float64 // guaranteed lower bound (paper: 1.0 V)
	MaxOutV     float64 // guaranteed upper bound (paper: 1.2 V)
	DropoutV    float64 // minimum input-output headroom
	MinInV      float64 // lowest input the design tracks (paper: 1.4 V)
	MaxInV      float64 // highest input the design tracks (paper: 2.5 V)
	MaxPowerW   float64 // peak load power supported (paper: 0.35 W)
}

// DefaultLDO returns the prototype's LDO envelope.
func DefaultLDO() LDO {
	return LDO{
		NominalOutV: 1.1,
		MinOutV:     1.0,
		MaxOutV:     1.2,
		DropoutV:    0.2,
		MinInV:      1.4,
		MaxInV:      2.5,
		MaxPowerW:   0.350,
	}
}

// Validate checks the envelope for internal consistency.
func (l LDO) Validate() error {
	switch {
	case l.MinOutV <= 0 || l.MinOutV > l.NominalOutV || l.NominalOutV > l.MaxOutV:
		return fmt.Errorf("pdn: LDO output window %.2f<=%.2f<=%.2f invalid",
			l.MinOutV, l.NominalOutV, l.MaxOutV)
	case l.DropoutV < 0:
		return fmt.Errorf("pdn: negative dropout %.2f", l.DropoutV)
	case l.MinInV < l.NominalOutV+l.DropoutV:
		return fmt.Errorf("pdn: min input %.2f below nominal+dropout %.2f",
			l.MinInV, l.NominalOutV+l.DropoutV)
	case l.MaxInV <= l.MinInV:
		return fmt.Errorf("pdn: input range [%.2f,%.2f] empty", l.MinInV, l.MaxInV)
	case l.MaxPowerW <= 0:
		return fmt.Errorf("pdn: non-positive max power")
	}
	return nil
}

// Output returns the regulated voltage for a given input. Inside the
// tracked range the LDO holds the nominal setpoint; below
// nominal+dropout it degrades to input-minus-dropout (dropout
// operation); below MinOutV+dropout regulation is lost and ok is false.
func (l LDO) Output(vin float64) (vout float64, ok bool) {
	switch {
	case vin >= l.NominalOutV+l.DropoutV:
		return l.NominalOutV, true
	case vin >= l.MinOutV+l.DropoutV:
		return vin - l.DropoutV, true
	default:
		return vin - l.DropoutV, false
	}
}

// Efficiency returns the power efficiency at a given input voltage: an
// LDO passes the load current, so efficiency is Vout/Vin. This is the
// "power efficiency loss" the paper accepts to avoid on-wafer bulk
// converters.
func (l LDO) Efficiency(vin float64) float64 {
	vout, _ := l.Output(vin)
	if vin <= 0 {
		return 0
	}
	return vout / vin
}

// LoadCurrentA returns the current the LDO conducts at a load power,
// drawn at the regulated output voltage.
func (l LDO) LoadCurrentA(loadW float64) float64 {
	return loadW / l.NominalOutV
}

// TransientDroop returns the output voltage dip caused by a load step
// of stepA amps lasting respondSec before the loop catches up, against
// decapF farads of output capacitance: dV = I*t/C.
func TransientDroop(stepA, respondSec, decapF float64) float64 {
	if decapF <= 0 {
		return math.Inf(1)
	}
	return stepA * respondSec / decapF
}

// RequiredDecapF returns the decoupling capacitance needed to keep a
// load step within maxDroopV: C = I*t/dV. With the paper's worst case
// (200 mA step, ~3 cycles at 300 MHz loop latency, 0.1 V budget to stay
// inside the 1.0-1.2 V window) this yields the paper's ~20 nF per tile.
func RequiredDecapF(stepA, respondSec, maxDroopV float64) float64 {
	if maxDroopV <= 0 {
		return math.Inf(1)
	}
	return stepA * respondSec / maxDroopV
}

// RegulationReport summarizes LDO behaviour across a solved droop map.
type RegulationReport struct {
	TilesInRegulation int     // tiles whose LDO holds the output window
	TilesOutOfRange   int     // tiles with input below the tracked range
	WorstInputV       float64 // lowest LDO input seen
	BestEfficiency    float64
	WorstEfficiency   float64
	MeanEfficiency    float64
	TotalLDOLossW     float64 // headroom burned by all LDOs at peak load
}

// CheckRegulation evaluates the LDO envelope at every tile of a solved
// droop map, with each tile drawing loadW at its regulated output.
func CheckRegulation(sol *Solution, l LDO, loadW float64) RegulationReport {
	r := RegulationReport{WorstInputV: math.Inf(1), WorstEfficiency: math.Inf(1), BestEfficiency: math.Inf(-1)}
	var effSum float64
	iLoad := l.LoadCurrentA(loadW)
	for _, vin := range sol.Volts {
		if vin < r.WorstInputV {
			r.WorstInputV = vin
		}
		vout, ok := l.Output(vin)
		if ok && vout >= l.MinOutV && vout <= l.MaxOutV {
			r.TilesInRegulation++
		} else {
			r.TilesOutOfRange++
		}
		eff := l.Efficiency(vin)
		effSum += eff
		if eff > r.BestEfficiency {
			r.BestEfficiency = eff
		}
		if eff < r.WorstEfficiency {
			r.WorstEfficiency = eff
		}
		r.TotalLDOLossW += (vin - vout) * iLoad
	}
	if n := len(sol.Volts); n > 0 {
		r.MeanEfficiency = effSum / float64(n)
	}
	return r
}
