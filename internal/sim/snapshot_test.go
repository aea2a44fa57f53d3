package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// The tests in this file pin warm-state forking to the from-scratch
// engine: a machine forked at any cycle — zero, the pre-fault boundary,
// or deep inside a degraded run — and stepped to the end must be
// bit-identical to a machine stepped from cycle 0, on every observable
// diffMachinesDeep covers.

// chaosSchedule is the standard dirty-run schedule shared with the
// network-sharded differential: a worker tile killed mid-run, a link flap and a
// bit error, so the fork must carry remap/shadow state, degradation
// accounting, retry bookkeeping and mid-stream schedule position.
func chaosSchedule() *inject.Schedule {
	return inject.NewSchedule().
		KillTileAt(2000, geom.C(1, 0)).
		FlapLink(geom.C(3, 3), geom.East, 1000, 1500).
		Add(inject.Event{Cycle: 1200, Kind: inject.BitError, Tile: geom.C(2, 2), Mask: 0xFF})
}

// runChaosReference runs the schedule from scratch (the trusted path).
func runChaosReference(t *testing.T, g *Graph, budget int64) (*ChaosResult, *Machine) {
	t.Helper()
	m := chaosBFSMachine(t)
	if err := m.AttachSchedule(chaosSchedule()); err != nil {
		t.Fatal(err)
	}
	res, err := RunSSSPUnderFaults(m, g, 0, SpreadWorkers(m, 16), budget)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	return res, m
}

// runChaosForked runs the same workload but forks at forkAt: the prefix
// machine is advanced to the fork cycle and forked, and the fork
// finishes the run. When
// attachEarly is set the schedule rides on the prefix — the post-fault
// fork case — otherwise it is attached to the fork, the Monte Carlo
// driver's shape.
func runChaosForked(t *testing.T, g *Graph, budget, forkAt int64, attachEarly bool) (*ChaosResult, *Machine) {
	t.Helper()
	m0 := chaosBFSMachine(t)
	if attachEarly {
		if err := m0.AttachSchedule(chaosSchedule()); err != nil {
			t.Fatal(err)
		}
	}
	distA, err := PrepareSSSP(m0, g, 0, SpreadWorkers(m0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.RunToCycleCtx(context.Background(), forkAt); err != nil {
		t.Fatal(err)
	}
	f := m0.Fork()
	if !attachEarly {
		if err := f.AttachSchedule(chaosSchedule()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RunToCycleCtx(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	var runErr error
	if !f.AllHalted() {
		runErr = &BudgetError{Cycles: budget}
	}
	return CollectSSSP(f, g, distA, runErr), f
}

func diffChaosResults(t *testing.T, label string, got, ref *ChaosResult) {
	t.Helper()
	if got.Completed != ref.Completed {
		t.Fatalf("%s: Completed %v, ref %v", label, got.Completed, ref.Completed)
	}
	if got.Cycles != ref.Cycles {
		t.Errorf("%s: Cycles %d, ref %d", label, got.Cycles, ref.Cycles)
	}
	if got.ReadErrors != ref.ReadErrors {
		t.Errorf("%s: ReadErrors %d, ref %d", label, got.ReadErrors, ref.ReadErrors)
	}
	if (got.RunErr == nil) != (ref.RunErr == nil) {
		t.Errorf("%s: RunErr %v, ref %v", label, got.RunErr, ref.RunErr)
	}
	for v := range ref.Dist {
		if got.Dist[v] != ref.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, ref %d", label, v, got.Dist[v], ref.Dist[v])
		}
	}
	gr, rr := got.Report, ref.Report
	if len(gr.KilledTiles) != len(rr.KilledTiles) ||
		len(gr.DegradedTiles) != len(rr.DegradedTiles) ||
		gr.RemappedWindows != rr.RemappedWindows ||
		gr.LostSharedBytes != rr.LostSharedBytes ||
		gr.RelayedRequests != rr.RelayedRequests ||
		gr.RelayedResponses != rr.RelayedResponses ||
		gr.RetriedOps != rr.RetriedOps ||
		gr.TimedOutOps != rr.TimedOutOps ||
		gr.ExhaustedOps != rr.ExhaustedOps ||
		gr.DroppedResponses != rr.DroppedResponses ||
		gr.DroppedForwards != rr.DroppedForwards ||
		gr.LinkFlaps != rr.LinkFlaps ||
		gr.BitErrors != rr.BitErrors {
		t.Errorf("%s: degradation reports diverge:\nforked %+v\nref    %+v", label, gr, rr)
	}
}

// TestMachineForkDifferentialChaos forks the dirty run at cycle 0, at
// the last cycle before the first event fires, and — with the schedule
// already mid-stream — after every event has landed, and demands
// bit-identity with from-scratch execution.
func TestMachineForkDifferentialChaos(t *testing.T) {
	const budget = 60_000
	g := GridGraph(8, 8).Unweighted()
	refRes, ref := runChaosReference(t, g, budget)

	cases := []struct {
		name        string
		forkAt      int64
		attachEarly bool
	}{
		{"cycle0", 0, false},
		{"preFaultBoundary", 999, false}, // first event fires at cycle 1000
		{"postAllFaults", 2500, true},    // kill at 2000 already landed
	}
	for _, tc := range cases {
		res, f := runChaosForked(t, g, budget, tc.forkAt, tc.attachEarly)
		diffChaosResults(t, tc.name, res, refRes)
		diffMachinesDeep(t, f, ref)
	}
}

// TestSnapshotConcurrentForks takes one snapshot of a warm prefix and
// forks it from several goroutines at once, each fork finishing a
// different fault schedule. Every trial must match its own from-scratch
// reference, and the snapshot must stay reusable afterwards (forking is
// read-only). Run under -race this is the concurrency half of the
// Snapshot contract.
func TestSnapshotConcurrentForks(t *testing.T) {
	const budget = 40_000
	g := GridGraph(8, 8).Unweighted()

	scheds := make([]*inject.Schedule, 4)
	for i := range scheds {
		grid := geom.NewGrid(8, 8)
		scheds[i] = inject.Random(grid, 2, [2]int64{1500, 4000}, fault.TrialSeed(7, 2, i), nil)
	}

	// From-scratch references, one per schedule.
	refs := make([]*ChaosResult, len(scheds))
	for i, sched := range scheds {
		m := chaosBFSMachine(t)
		if err := m.AttachSchedule(sched); err != nil {
			t.Fatal(err)
		}
		res, err := RunSSSPUnderFaults(m, g, 0, SpreadWorkers(m, 16), budget)
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
		refs[i] = res
	}

	// One warm prefix to cycle 1400 (before any schedule's first event),
	// snapshotted once.
	m0 := chaosBFSMachine(t)
	distA, err := PrepareSSSP(m0, g, 0, SpreadWorkers(m0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.RunToCycleCtx(context.Background(), 1400); err != nil {
		t.Fatal(err)
	}
	snap := m0.Snapshot()
	m0.Close()
	if snap.Cycle() != 1400 {
		t.Fatalf("snapshot cycle = %d, want 1400", snap.Cycle())
	}

	results := make([]*ChaosResult, len(scheds))
	var wg sync.WaitGroup
	for i := range scheds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := snap.Fork()
			defer f.Close()
			if err := f.AttachSchedule(scheds[i]); err != nil {
				t.Error(err)
				return
			}
			if err := f.RunToCycleCtx(context.Background(), budget); err != nil {
				t.Error(err)
				return
			}
			var runErr error
			if !f.AllHalted() {
				runErr = &BudgetError{Cycles: budget}
			}
			results[i] = CollectSSSP(f, g, distA, runErr)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i] == nil {
			t.Fatalf("trial %d produced no result", i)
		}
		diffChaosResults(t, fmt.Sprintf("trial %d", i), results[i], refs[i])
	}

	// The snapshot is still intact: a late fork replays trial 0 exactly.
	f := snap.Fork()
	defer f.Close()
	if err := f.AttachSchedule(scheds[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.RunToCycleCtx(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	var runErr error
	if !f.AllHalted() {
		runErr = &BudgetError{Cycles: budget}
	}
	diffChaosResults(t, "late fork", CollectSSSP(f, g, distA, runErr), refs[0])
}

// TestForkIndependence: stepping the original after a fork must not
// disturb the fork, and vice versa.
func TestForkIndependence(t *testing.T) {
	g := GridGraph(6, 6).Unweighted()
	m := chaosBFSMachine(t)
	defer m.Close()
	if _, err := PrepareSSSP(m, g, 0, SpreadWorkers(m, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToCycleCtx(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	defer f.Close()
	if err := m.RunToCycleCtx(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	if f.Cycle() != 500 {
		t.Fatalf("fork cycle moved to %d while original stepped", f.Cycle())
	}
	if err := f.RunToCycleCtx(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	diffMachinesDeep(t, f, m)
}
