package core

import (
	"reflect"
	"testing"
)

// TestRunChaosForkDifferential pins the warm-state forked sweep to the
// from-scratch path: identical ChaosPoints — every counter and mean,
// via DeepEqual — regardless of trial-worker count. This is the end-to-end statement of the
// fork's bit-identity contract at the Monte Carlo driver level.
func TestRunChaosForkDifferential(t *testing.T) {
	d := NewDesign()
	base := smallChaosConfig()
	base.Trials = 3
	base.Kills = []int{0, 2}

	ref := base
	ref.Fork = false
	ref.TrialWorkers = 1
	want, err := d.RunChaos(ref)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*ChaosConfig)
	}{
		{"serialWorkers", func(c *ChaosConfig) { c.TrialWorkers = 1 }},
		{"pooledWorkers", func(c *ChaosConfig) { c.TrialWorkers = 3 }},
		{"defaultWorkers", func(c *ChaosConfig) { c.TrialWorkers = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Fork = true
		tc.mut(&cfg)
		got, err := d.RunChaos(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: forked sweep diverges from from-scratch:\nforked %+v\nref    %+v", tc.name, got, want)
		}
	}

	// The from-scratch path itself is worker-count independent too (the
	// original contract, kept as the anchor of the differential).
	ref2 := base
	ref2.Fork = false
	ref2.TrialWorkers = 0
	got, err := d.RunChaos(ref2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("from-scratch sweep is worker-count dependent:\n%+v\nvs\n%+v", got, want)
	}
}

// TestRunChaosForkProgress: the forked path must report exactly one
// Progress call per trial with monotonically complete bookkeeping, like
// the from-scratch path — including the replicated kills=0 trials.
func TestRunChaosForkProgress(t *testing.T) {
	d := NewDesign()
	cfg := smallChaosConfig()
	cfg.Fork = true
	var calls int
	var lastDone, lastTotal int
	cfg.TrialWorkers = 1
	cfg.Progress = func(done, total int, cycles int64) {
		calls++
		lastDone, lastTotal = done, total
		if cycles <= 0 {
			t.Errorf("progress reported %d cycles stepped", cycles)
		}
	}
	if _, err := d.RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	want := cfg.Trials * len(cfg.Kills)
	if calls != want || lastDone != want || lastTotal != want {
		t.Fatalf("progress calls = %d (last %d/%d), want %d", calls, lastDone, lastTotal, want)
	}
}
