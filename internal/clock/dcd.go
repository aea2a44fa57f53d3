package clock

import "math"

// Duty-cycle distortion (DCD) modelling, paper Section IV: pull-up /
// pull-down imbalance in the buffers, inverters, forwarding muxes and
// inter-chiplet I/O drivers shifts the duty cycle a little at every
// forwarding hop. Forwarded naively, the error accrues linearly and
// "kills" the clock once one half-cycle vanishes — a 5% per-tile
// distortion kills the clock within 10 tiles on a 32x32 array whose
// forwarding chains run tens of tiles deep. The prototype forwards an
// *inverted* copy at each hop, which alternates the sign of the error
// between the clock's halves, and adds an all-digital duty-cycle
// corrector (DCC) for the residual.

// DCDConfig describes the distortion environment.
type DCDConfig struct {
	// PerHopDistortion is the duty-cycle shift added by one forwarding
	// hop, as a fraction of the period (e.g. 0.05 = 5%). Positive means
	// the high phase stretches.
	PerHopDistortion float64
	// InvertPerHop selects the prototype's alternate-inversion scheme.
	InvertPerHop bool
	// DCC enables the duty-cycle correction unit, which re-centers the
	// duty cycle to 50% +/- DCCResidual at every hop.
	DCC bool
	// DCCResidual is the corrector's leftover error (fraction of period).
	DCCResidual float64
	// MinPulse is the narrowest pulse (fraction of the period) that
	// still propagates through the forwarding logic; the clock is dead
	// when either half shrinks below it.
	MinPulse float64
}

// DefaultDCD returns the prototype's scheme: inversion plus DCC.
func DefaultDCD(perHop float64) DCDConfig {
	return DCDConfig{
		PerHopDistortion: perHop,
		InvertPerHop:     true,
		DCC:              true,
		DCCResidual:      0.01,
		MinPulse:         0.1,
	}
}

// Propagate returns the duty cycle seen after hops forwarding stages,
// starting from a perfect 50% clock, and whether the clock is still
// alive there. The returned slice has hops+1 entries (entry 0 is the
// source).
func (c DCDConfig) Propagate(hops int) (duty []float64, aliveThrough int) {
	duty = make([]float64, hops+1)
	duty[0] = 0.5
	aliveThrough = hops
	for h := 1; h <= hops; h++ {
		d := duty[h-1]
		if c.InvertPerHop {
			// The forwarded signal is the complement: its high phase is
			// the previous low phase, then picks up this hop's error.
			d = 1 - d
		}
		d += c.PerHopDistortion
		if c.DCC {
			// All-digital 50% corrector: clamp toward center, leaving
			// the residual error in the original direction.
			if d > 0.5+c.DCCResidual {
				d = 0.5 + c.DCCResidual
			} else if d < 0.5-c.DCCResidual {
				d = 0.5 - c.DCCResidual
			}
		}
		duty[h] = d
		if aliveThrough == hops && (d <= c.MinPulse || d >= 1-c.MinPulse) {
			aliveThrough = h - 1
		}
	}
	return duty, aliveThrough
}

// KillDepth returns the number of hops after which the clock dies (its
// duty cycle leaves (MinPulse, 1-MinPulse)), or -1 if it survives
// maxHops hops. The paper's example: 5% per-tile distortion without
// inversion kills the clock within 10 tiles.
func (c DCDConfig) KillDepth(maxHops int) int {
	_, alive := c.Propagate(maxHops)
	if alive == maxHops {
		return -1
	}
	return alive + 1
}

// WorstDuty returns the largest deviation from 50% across a chain of
// hops stages.
func (c DCDConfig) WorstDuty(hops int) float64 {
	duty, _ := c.Propagate(hops)
	worst := 0.0
	for _, d := range duty {
		if dev := math.Abs(d - 0.5); dev > worst {
			worst = dev
		}
	}
	return worst
}

// PassiveCDN captures why a wafer-spanning passive clock tree was
// rejected (paper Section IV): its lumped parasitics limit it to
// sub-MHz operation.
type PassiveCDN struct {
	CapF   float64 // total network capacitance (>450 pF)
	IndH   float64 // total network inductance (>120 nH)
	ResOhm float64 // effective series resistance of the spine
}

// DefaultPassiveCDN returns the paper's parasitic estimates for a
// 15,100 mm^2, 1024-sink passive network.
func DefaultPassiveCDN() PassiveCDN {
	return PassiveCDN{CapF: 450e-12, IndH: 120e-9, ResOhm: 2000}
}

// MaxFrequencyHz estimates the highest usable distribution frequency:
// the RC-limited bandwidth f = 1/(2*pi*R*C*) of the lumped network,
// capped by the LC self-resonance f = 1/(2*pi*sqrt(LC)) beyond which
// the network stops looking like a wire.
func (p PassiveCDN) MaxFrequencyHz() float64 {
	rc := 1 / (2 * math.Pi * p.ResOhm * p.CapF)
	lc := 1 / (2 * math.Pi * math.Sqrt(p.IndH*p.CapF))
	return math.Min(rc, lc)
}
