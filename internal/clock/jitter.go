package clock

import (
	"math"
	"math/rand"
)

// Jitter accumulation in the forwarding chain. The paper notes that a
// passive network would need a crystal source with sub-100 ps absolute
// jitter driving an enormous load; forwarding instead re-times the
// clock through buffers in every tile, each adding a small random
// timing error. Uncorrelated per-hop jitter accumulates as a random
// walk — RMS growth ~ sqrt(hops) — and the paper's own footnote 3
// explains why this is acceptable: inter-chiplet communication uses
// asynchronous FIFOs, so accumulated phase error (like the half-cycle
// shift from inversion) does not break the links; it only consumes
// timing margin *within* each tile, which is bounded by the per-hop
// contribution, not the accumulated one.

// JitterModel describes per-hop timing noise.
type JitterModel struct {
	// PerHopRMSps is the RMS jitter one forwarding stage adds
	// (buffers + mux + I/O driver), picoseconds.
	PerHopRMSps float64
	// CorrelatedPS is a systematic (supply-induced) per-hop shift that
	// adds linearly rather than in quadrature.
	CorrelatedPS float64
}

// DefaultJitter returns a plausible 40nm forwarding stage: 2 ps RMS
// random, 0.1 ps systematic.
func DefaultJitter() JitterModel {
	return JitterModel{PerHopRMSps: 2, CorrelatedPS: 0.1}
}

// AccumulatedRMSps returns the analytic RMS phase error after hops
// stages: quadrature sum of the random part plus linear systematic.
func (j JitterModel) AccumulatedRMSps(hops int) float64 {
	random := j.PerHopRMSps * math.Sqrt(float64(hops))
	systematic := j.CorrelatedPS * float64(hops)
	return random + systematic
}

// Simulate draws the accumulated phase error of one chain instance.
func (j JitterModel) Simulate(hops int, rng *rand.Rand) float64 {
	var phase float64
	for h := 0; h < hops; h++ {
		phase += rng.NormFloat64()*j.PerHopRMSps + j.CorrelatedPS
	}
	return phase
}

// SimulateRMS estimates the accumulated RMS over trials chains.
func (j JitterModel) SimulateRMS(hops, trials int, rng *rand.Rand) float64 {
	var ss float64
	for i := 0; i < trials; i++ {
		p := j.Simulate(hops, rng)
		ss += p * p
	}
	return math.Sqrt(ss / float64(trials))
}

// MaxSafeHopsSynchronous returns how deep a forwarding chain could go
// if the links were *synchronous* (accumulated jitter had to stay
// within the margin) — demonstrating why the prototype uses async
// FIFOs: the synchronous bound is a few tens of hops, far less than
// the 62-hop worst case of the 32x32 array.
func (j JitterModel) MaxSafeHopsSynchronous(freqHz, marginFrac float64) int {
	period := 1e12 / freqHz
	budget := period * marginFrac
	for hops := 1; ; hops++ {
		if j.AccumulatedRMSps(hops)*6 > budget {
			return hops - 1
		}
		if hops > 1<<20 {
			return hops
		}
	}
}
