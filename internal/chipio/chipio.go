// Package chipio models the fine-pitch chiplet I/O architecture of the
// waferscale prototype (paper Section V and Figs. 5 and 8): small
// transceiver cells that fit entirely under the copper-pillar pad,
// stripped-down ESD for bare-die assembly, two pillars landing on every
// pad for bonding redundancy, larger duplicate probe pads for pre-bond
// testing, and the two-set I/O column arrangement that lets the system
// survive with a single substrate routing layer (Section VIII).
package chipio

import (
	"fmt"
	"math"
)

// IOCell describes the transmitter/receiver circuit of one signal I/O.
type IOCell struct {
	AreaUM2       float64 // cell area incl. ESD (paper: ~150 um^2)
	SupplyVolts   float64 // I/O swing (logic supply, 1.1 V)
	WireCapFPerUM float64 // loaded link capacitance per micron
	ESDRatingV    float64 // HBM rating (paper: 100 V for bare-die assembly)
}

// DefaultIOCell returns the prototype's I/O cell.
func DefaultIOCell() IOCell {
	return IOCell{
		AreaUM2:       150,
		SupplyVolts:   1.1,
		WireCapFPerUM: 0.104e-15,
		ESDRatingV:    100,
	}
}

// EnergyPerBitJ returns the switching energy for one bit over a link of
// the given length: E = C*V^2 with C the loaded wire capacitance (full
// rail-to-rail toggle). At the prototype's 500 um worst-case link this
// reproduces the paper's 0.063 pJ/bit.
func (c IOCell) EnergyPerBitJ(linkUM float64) float64 {
	return c.WireCapFPerUM * linkUM * c.SupplyVolts * c.SupplyVolts
}

// ESDContext distinguishes packaged-part handling from bare-die
// chiplet-to-wafer bonding (the paper's justification for the
// stripped-down ESD network that lets the cell fit under the pad).
type ESDContext int

// The handling environments.
const (
	// PackagedPart must survive the 2 kV human-body model.
	PackagedPart ESDContext = iota
	// BareDieAssembly only faces the 100 V HBM/MM class (like silicon
	// interposers).
	BareDieAssembly
)

// RequiredESDV returns the HBM withstand voltage required by a context.
func (e ESDContext) RequiredESDV() float64 {
	if e == PackagedPart {
		return 2000
	}
	return 100
}

// MeetsESD reports whether the cell's rating covers the context.
func (c IOCell) MeetsESD(ctx ESDContext) bool {
	return c.ESDRatingV >= ctx.RequiredESDV()
}

// Pillar geometry of the Si-IF technology.
const (
	// PillarPitchUM is the copper-pillar pitch (minimum the technology
	// offers, and what the prototype uses).
	PillarPitchUM = 10.0
	// PadWidthUM is the fine-pitch I/O pad width (paper Section VII: 7 um).
	PadWidthUM = 7.0
	// ProbePadPitchUM is the minimum pitch probe cards can hit.
	ProbePadPitchUM = 50.0
)

// BondConfig describes the pillar redundancy scheme for one chiplet.
type BondConfig struct {
	PillarYield    float64 // probability one pillar bonds (paper: >0.9999)
	PillarsPerPad  int     // redundancy (prototype: 2)
	PadsPerChiplet int     // bonded fine-pitch pads
}

// Validate checks the configuration.
func (b BondConfig) Validate() error {
	if b.PillarYield <= 0 || b.PillarYield > 1 {
		return fmt.Errorf("chipio: pillar yield %.6g outside (0,1]", b.PillarYield)
	}
	if b.PillarsPerPad < 1 {
		return fmt.Errorf("chipio: need at least one pillar per pad")
	}
	if b.PadsPerChiplet < 1 {
		return fmt.Errorf("chipio: need at least one pad")
	}
	return nil
}

// PadYield returns the probability a pad bonds: it fails only if every
// redundant pillar on it fails.
func (b BondConfig) PadYield() float64 {
	fail := math.Pow(1-b.PillarYield, float64(b.PillarsPerPad))
	return 1 - fail
}

// ChipletYield returns the probability every pad on the chiplet bonds.
// With one pillar per pad and ~2048 pads at 99.99% pillar yield this is
// the paper's 81.46%; with two pillars per pad it is 99.998%.
func (b BondConfig) ChipletYield() float64 {
	return math.Pow(b.PadYield(), float64(b.PadsPerChiplet))
}

// ExpectedFaultyChiplets returns the expected number of chiplets (out
// of total) that fail bonding — the paper's 380 -> ~0 improvement on
// the 2048-chiplet wafer.
func (b BondConfig) ExpectedFaultyChiplets(total int) float64 {
	return float64(total) * (1 - b.ChipletYield())
}

// TileLossProbability returns the probability that a tile is lost to
// bonding faults, given the bond configurations of its two chiplets: a
// tile dies if either chiplet fails to bond.
func TileLossProbability(compute, memory BondConfig) float64 {
	return 1 - compute.ChipletYield()*memory.ChipletYield()
}

// YieldComparison is the Section V headline: single- versus dual-pillar
// bonding for a whole wafer.
type YieldComparison struct {
	SinglePadYield     float64
	DualPadYield       float64
	SingleChipletYield float64
	DualChipletYield   float64
	SingleExpectedBad  float64
	DualExpectedBad    float64
}

// CompareRedundancy computes the comparison for a chiplet with pads
// bonded pads on a wafer of totalChiplets.
func CompareRedundancy(pillarYield float64, pads, totalChiplets int) YieldComparison {
	single := BondConfig{PillarYield: pillarYield, PillarsPerPad: 1, PadsPerChiplet: pads}
	dual := BondConfig{PillarYield: pillarYield, PillarsPerPad: 2, PadsPerChiplet: pads}
	return YieldComparison{
		SinglePadYield:     single.PadYield(),
		DualPadYield:       dual.PadYield(),
		SingleChipletYield: single.ChipletYield(),
		DualChipletYield:   dual.ChipletYield(),
		SingleExpectedBad:  single.ExpectedFaultyChiplets(totalChiplets),
		DualExpectedBad:    dual.ExpectedFaultyChiplets(totalChiplets),
	}
}
