package workload

import (
	"runtime"
	"testing"
)

// TestForkFootprint pins demand-paged machine memory one layer up: a
// fork of a side-8 machine that has run the transformer block copies
// only the pages the guest wrote, not the machine's 96 MiB of simulated
// SRAM.
func TestForkFootprint(t *testing.T) {
	m, err := BuildMachine(8, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, rep, err := Run(m, TransformerBlock(0, 0, 0), Options{Placement: PlacementBandwidth})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run failed at op %q", rep.FailedOp)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := m.Fork()
	runtime.ReadMemStats(&after)
	defer f.Close()
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 8<<20 {
		t.Errorf("fork allocated %.1f MiB, want < 8 MiB", float64(got)/(1<<20))
	}
	t.Logf("side-8 fork after the transformer block allocated %.2f MiB", float64(got)/(1<<20))
}
