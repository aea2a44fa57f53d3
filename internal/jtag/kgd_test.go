package jtag

import (
	"math"
	"math/rand"
	"testing"
)

func TestProbeTestPassesGoodDie(t *testing.T) {
	c := NewChipletUnderTest(7, 14, false)
	if err := ProbeTest(c); err != nil {
		t.Fatalf("good die failed probe test: %v", err)
	}
}

func TestProbeTestCatchesDefectiveDie(t *testing.T) {
	c := NewChipletUnderTest(8, 14, true)
	if err := ProbeTest(c); err == nil {
		t.Fatal("defective die passed probe test")
	}
}

func TestProbeTestCatchesSingleBadCore(t *testing.T) {
	// A subtler defect: only one DAP dead.
	c := NewChipletUnderTest(9, 14, false)
	c.Tile.DAPs[5].Faulty = true
	c.ManufacturingDefect = true
	if err := ProbeTest(c); err == nil {
		t.Fatal("die with one dead core passed")
	}
}

func TestWriteThroughChainTargetsOneDAP(t *testing.T) {
	tile := NewTileChain(4, 100)
	ctl := NewController(tile)
	ctl.Reset()
	words := []uint32{0x11111111, 0x22222222}
	if err := writeThroughChain(ctl, 4, 2, 0x80, words); err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if got := tile.DAPs[2].MemWord(0x80 + uint32(4*i)); got != w {
			t.Errorf("target DAP word %d = %#x, want %#x", i, got, w)
		}
	}
	// The bypassed DAPs must be untouched.
	for _, d := range []int{0, 1, 3} {
		if n := len(tile.DAPs[d].memory); n != 0 {
			t.Errorf("bypassed DAP %d committed %d writes", d, n)
		}
	}
}

// TestScreenPerfectAccuracy: the probe test must have zero false
// accepts and zero false rejects over a random batch.
func TestScreenPerfectAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	batch := RandomBatch(60, 4, 0.85, rng)
	res, good := ScreenChiplets(batch)
	if res.FalseAccepts != 0 || res.FalseRejects != 0 {
		t.Fatalf("screening errors: %+v", res)
	}
	if res.KnownGood+res.Rejected != res.Tested {
		t.Errorf("partition does not cover batch: %+v", res)
	}
	if len(good) != res.KnownGood {
		t.Errorf("good list %d != counter %d", len(good), res.KnownGood)
	}
	for _, c := range good {
		if c.ManufacturingDefect {
			t.Error("defective die in the known-good bin")
		}
	}
}

// TestCompareKGDHeadline: with a 90% die yield and the dual-pillar
// 99.998% bond yield, an unscreened 2048-site wafer would lose ~205
// sites; screening brings it to the bond-limited ~0.04 — KGD is what
// makes chiplet waferscale integration yield at all.
func TestCompareKGDHeadline(t *testing.T) {
	out := CompareKGD(2048, 0.90, 0.99998)
	if math.Abs(out.FaultyWithoutKGD-205) > 2 {
		t.Errorf("unscreened faulty sites = %.1f, want ~205", out.FaultyWithoutKGD)
	}
	if out.FaultyWithKGD > 0.1 {
		t.Errorf("screened faulty sites = %.3f, want ~0.04", out.FaultyWithKGD)
	}
	if out.FaultyWithKGD >= out.FaultyWithoutKGD {
		t.Error("screening must help")
	}
}

// TestKGDPipeline: end-to-end — manufacture, screen, and verify the
// known-good bin matches the binomial expectation.
func TestKGDPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	const yield = 0.8
	batch := RandomBatch(n, 3, yield, rng)
	res, _ := ScreenChiplets(batch)
	want := yield * n
	if math.Abs(float64(res.KnownGood)-want) > 0.15*want {
		t.Errorf("known-good = %d, want ~%.0f", res.KnownGood, want)
	}
}
