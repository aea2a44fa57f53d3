package workload

import (
	"runtime"
	"testing"
)

// TestRunFootprint pins demand-paged machine memory one layer up: a
// side-8 machine that has run the transformer block holds only the
// pages the guest wrote, not its 96 MiB of simulated SRAM.
func TestRunFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := BuildMachine(8, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Run(m, TransformerBlock(0, 0, 0), Options{Placement: PlacementBandwidth})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run failed at op %q", rep.FailedOp)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got >= 8<<20 {
		t.Errorf("machine holds %.1f MiB after the run, want < 8 MiB", float64(got)/(1<<20))
	}
	t.Logf("side-8 machine after the transformer block holds %.2f MiB", float64(got)/(1<<20))
}
