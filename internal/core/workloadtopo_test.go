package core

import (
	"context"
	"strings"
	"testing"

	"waferscale/internal/noc"
	"waferscale/internal/workload"
)

// TestExploreWorkloadTopologiesRanks runs the full topology x placement
// grid on a small machine: every combination must verify against the
// host reference, the ranking must be fastest-first, and the point set
// must cover the whole grid exactly once.
func TestExploreWorkloadTopologiesRanks(t *testing.T) {
	g := workload.TransformerBlock(0, 0, 0)
	run, err := ExploreWorkloadTopologiesCtx(context.Background(), g, WorkloadTopoOpts{Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(noc.TopologyNames()) * len(workload.PlacementNames())
	if len(run.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(run.Points), wantPoints)
	}
	seen := map[string]bool{}
	for i, p := range run.Points {
		key := p.Topology + "/" + p.Placement
		if seen[key] {
			t.Errorf("combination %s appears twice", key)
		}
		seen[key] = true
		if !p.Verified {
			t.Errorf("%s did not verify against the reference", key)
		}
		if p.Cycles <= 0 || p.RemoteOps <= 0 {
			t.Errorf("%s has implausible metrics: %+v", key, p)
		}
		if i > 0 && run.Points[i-1].Cycles > p.Cycles {
			t.Errorf("ranking not fastest-first at index %d: %d > %d",
				i, run.Points[i-1].Cycles, p.Cycles)
		}
	}
	if out := FormatWorkloadTopoSweep(run); !strings.Contains(out, run.Graph) {
		t.Errorf("formatted sweep missing graph name:\n%s", out)
	}
}

// TestExploreWorkloadTopologiesWorkerInvariance pins the determinism
// contract: the sweep's points are bit-identical whether combinations
// run serially or on a concurrent host pool.
func TestExploreWorkloadTopologiesWorkerInvariance(t *testing.T) {
	g := workload.TransformerBlock(4, 4, 2)
	opts := WorkloadTopoOpts{
		Side:       4,
		Topologies: []string{noc.TopoMesh, noc.TopoCMesh},
		Workers:    1,
	}
	serial, err := ExploreWorkloadTopologiesCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	wide, err := ExploreWorkloadTopologiesCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(wide.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(wide.Points))
	}
	for i := range serial.Points {
		if serial.Points[i] != wide.Points[i] {
			t.Errorf("point %d differs serial vs concurrent:\n%+v\n%+v",
				i, serial.Points[i], wide.Points[i])
		}
	}
}

// TestExploreWorkloadTopologiesRejects pins the error paths: an odd
// side cannot host the vertical fold, and cancellation propagates.
func TestExploreWorkloadTopologiesRejects(t *testing.T) {
	g := workload.TransformerBlock(0, 0, 0)
	if _, err := ExploreWorkloadTopologiesCtx(context.Background(), g, WorkloadTopoOpts{Side: 3}); err == nil {
		t.Error("odd side with vertical topology accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExploreWorkloadTopologiesCtx(ctx, g, WorkloadTopoOpts{Side: 4}); err == nil {
		t.Error("cancelled context did not abort the sweep")
	}
}
