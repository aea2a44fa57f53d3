package clock

import (
	"math"
	"math/rand"
	"testing"
)

// TestJitterRandomWalkGrowth: simulated accumulated RMS tracks the
// analytic sqrt(hops) growth.
func TestJitterRandomWalkGrowth(t *testing.T) {
	j := JitterModel{PerHopRMSps: 2} // purely random
	rng := rand.New(rand.NewSource(42))
	for _, hops := range []int{4, 16, 64} {
		got := j.SimulateRMS(hops, 4000, rng)
		want := 2 * math.Sqrt(float64(hops))
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("hops=%d: simulated RMS %.2f ps, analytic %.2f ps", hops, got, want)
		}
	}
}

// TestJitterSystematicLinear: the correlated component adds linearly.
func TestJitterSystematicLinear(t *testing.T) {
	j := JitterModel{CorrelatedPS: 1} // purely systematic
	rng := rand.New(rand.NewSource(1))
	if got := j.Simulate(50, rng); math.Abs(got-50) > 1e-9 {
		t.Errorf("systematic accumulation = %.2f, want 50", got)
	}
	if got := j.AccumulatedRMSps(50); got != 50 {
		t.Errorf("analytic = %v", got)
	}
}

// TestJitterPerHopBudget: the per-hop jitter of the default model fits
// the 300 MHz cycle with a 10% uncertainty margin at 6 sigma — which is
// all the async-FIFO links require.
func TestJitterPerHopBudget(t *testing.T) {
	const periodPS = 1e12 / 300e6
	if j := DefaultJitter(); 6*j.PerHopRMSps > 0.10*periodPS {
		t.Errorf("6-sigma per-hop jitter %.1f ps busts 10%% of the %.0f ps cycle", 6*j.PerHopRMSps, periodPS)
	}
}

// TestAsyncFIFOsNecessary quantifies footnote 3: the per-hop clock
// inversion shifts the phase by half a cycle every hop — three orders
// of magnitude more than the accumulated random jitter — so no
// synchronous link discipline could survive the forwarding scheme;
// asynchronous FIFOs absorb phase wholesale.
func TestAsyncFIFOsNecessary(t *testing.T) {
	j := DefaultJitter()
	const worstHops = 62 // corner-to-corner on the 32x32 array
	accumulated := j.AccumulatedRMSps(worstHops)
	halfCyclePS := 0.5 * 1e12 / 300e6 // 1667 ps
	if accumulated >= halfCyclePS/10 {
		t.Errorf("accumulated jitter %.1f ps should be dwarfed by the %.0f ps inversion shift",
			accumulated, halfCyclePS)
	}
	// And the synchronous depth bound is finite — phase error does
	// accumulate — even if jitter alone would allow deep chains.
	safe := j.MaxSafeHopsSynchronous(300e6, 0.10)
	if safe < 1 || safe > 1<<20 {
		t.Errorf("synchronous bound = %d, expected finite positive", safe)
	}
}

func TestMaxSafeHopsMonotoneInMargin(t *testing.T) {
	j := DefaultJitter()
	small := j.MaxSafeHopsSynchronous(300e6, 0.05)
	large := j.MaxSafeHopsSynchronous(300e6, 0.20)
	if large <= small {
		t.Errorf("more margin should allow deeper chains: %d vs %d", small, large)
	}
}
