package core

import (
	"reflect"
	"testing"

	"waferscale/internal/sim"
)

func smallChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Side = 4
	cfg.Workers = 8
	cfg.Trials = 2
	cfg.Kills = []int{0, 1}
	cfg.GraphSide = 6
	cfg.MaxCycles = 80_000
	cfg.Seed = 7
	return cfg
}

func TestRunChaosSweep(t *testing.T) {
	d := NewDesign()
	points, err := d.RunChaos(smallChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	base := points[0]
	if base.Kills != 0 || base.Completed != base.Trials || base.Verified != base.Trials {
		t.Errorf("healthy baseline must complete and verify: %+v", base)
	}
	if base.MeanRetries != 0 || base.MeanLostKiB != 0 {
		t.Errorf("healthy baseline must not degrade: %+v", base)
	}
	killed := points[1]
	if killed.Kills != 1 || killed.MeanLostKiB == 0 {
		t.Errorf("kill point must lose memory: %+v", killed)
	}
	// The survival curve never hangs: every trial either completed or
	// exhausted its budget, and both counters stay within Trials.
	for _, p := range points {
		if p.Completed > p.Trials || p.Verified > p.Completed {
			t.Errorf("impossible point: %+v", p)
		}
	}
	if out := sim.FormatChaos(points); len(out) == 0 {
		t.Error("FormatChaos returned nothing")
	}
}

func TestRunChaosDeterministic(t *testing.T) {
	d := NewDesign()
	cfg := smallChaosConfig()
	a, err := d.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestChaosConfigValidate(t *testing.T) {
	cfg := smallChaosConfig()
	cfg.Side = 1
	if err := cfg.Validate(); err == nil {
		t.Error("side 1 should fail")
	}
	cfg = smallChaosConfig()
	cfg.Kills = []int{99}
	if err := cfg.Validate(); err == nil {
		t.Error("kill count beyond the array should fail")
	}
	cfg = smallChaosConfig()
	cfg.Trials = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero trials should fail")
	}
}
