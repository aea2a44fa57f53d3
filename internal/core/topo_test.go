package core

import (
	"context"
	"testing"

	"waferscale/internal/noc"
)

// topoTestSpace is a small but non-trivial candidate grid: every
// shipped topology crossed with a fault-free map and two random 6-fault
// maps on a 16x16 array (even side so the vertical fold exists).
func topoTestSpace() TopoSweepSpace {
	return TopoSweepSpace{
		Side:        16,
		FaultCounts: []int{0, 6},
		Trials:      2,
		Seed:        17,
	}
}

// TestExploreTopologiesTwoTier is the sweep's acceptance test: the
// two-tier run's cycle-verified frontier must be identical to an
// exhaustive cycle evaluation of the full candidate grid, the
// analytical screen must order the survivors like the engine does
// (Spearman >= 0.8 on both objectives), and the screen must be at
// least 5x faster than the exhaustive run it replaces.
func TestExploreTopologiesTwoTier(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-accurate sweep")
	}
	space := topoTestSpace()
	// Serial evaluation keeps the screen/exhaustive timing ratio free of
	// scheduler noise.
	exhaustive, err := ExploreTopologiesCtx(context.Background(), space, TopoSweepOpts{Model: ModelCycle, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := ExploreTopologiesCtx(context.Background(), space, TopoSweepOpts{TwoTier: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 3; len(exhaustive.All) != want || len(two.Screened) != want {
		t.Fatalf("candidate count: exhaustive %d, screened %d, want %d", len(exhaustive.All), len(two.Screened), want)
	}

	// Frontier identity: same points, same order (both sorted by sat
	// rate; evaluation is deterministic so values compare with ==).
	if len(two.Frontier) != len(exhaustive.Frontier) {
		t.Fatalf("frontier size %d != exhaustive %d\ntwo-tier:\n%s\nexhaustive:\n%s",
			len(two.Frontier), len(exhaustive.Frontier), FormatTopoSweep(two), FormatTopoSweep(exhaustive))
	}
	for i := range two.Frontier {
		if two.Frontier[i] != exhaustive.Frontier[i] {
			t.Errorf("frontier[%d]: two-tier %+v != exhaustive %+v", i, two.Frontier[i], exhaustive.Frontier[i])
		}
	}

	if two.Survivors+two.ScreenedOut != len(two.Screened) {
		t.Errorf("survivor accounting: %d + %d != %d", two.Survivors, two.ScreenedOut, len(two.Screened))
	}
	if two.Survivors == 0 || len(two.All) != two.Survivors {
		t.Errorf("verified %d points for %d survivors", len(two.All), two.Survivors)
	}

	// Screen fidelity: rank correlation and the per-topology report.
	if two.SatRankCorr < 0.8 {
		t.Errorf("saturation rank correlation %.3f < 0.8", two.SatRankCorr)
	}
	if two.LatencyRankCorr < 0.8 {
		t.Errorf("latency rank correlation %.3f < 0.8", two.LatencyRankCorr)
	}
	if len(two.PerTopology) == 0 {
		t.Error("no per-topology model-error report")
	}
	for _, te := range two.PerTopology {
		if te.Points == 0 {
			t.Errorf("%s: empty error report entry", te.Topology)
		}
		if te.SatMaxPct > 100*tolDeliveredHint || te.LatencyMaxPct > 100*tolLatencyHint {
			t.Errorf("%s: model error beyond pinned tolerance: sat max %.1f%%, latency max %.1f%%",
				te.Topology, te.SatMaxPct, te.LatencyMaxPct)
		}
	}

	// Screen speedup: the analytical pass must be >= 5x faster than
	// exhaustively cycle-evaluating the same candidates.
	speedup := float64(exhaustive.EvalElapsed) / float64(two.ScreenElapsed)
	t.Logf("screen %v, exhaustive %v: %.1fx speedup (survivors %d/%d)",
		two.ScreenElapsed, exhaustive.EvalElapsed, speedup, two.Survivors, len(two.Screened))
	t.Logf("\n%s", FormatTopoSweep(two))
	if speedup < 5 {
		t.Errorf("screen speedup %.1fx < 5x", speedup)
	}
}

// Pinned screen-error tolerances for the sweep test, matching the
// analytical accuracy suite (tolDelivered=0.10 on throughput is too
// tight for the derated saturation product, so the sweep allows the
// saturation tolerance used there).
const (
	tolDeliveredHint = 0.25
	tolLatencyHint   = 0.25
)

// TestExploreTopologiesSingleTierAnalytical checks the cheap path: an
// analytical-only sweep evaluates every candidate, labels points, and
// produces a frontier that is a non-dominated subset of All.
func TestExploreTopologiesSingleTierAnalytical(t *testing.T) {
	space := topoTestSpace()
	run, err := ExploreTopologiesCtx(context.Background(), space, TopoSweepOpts{Model: ModelAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	if run.Model != string(ModelAnalytical) || run.TwoTier {
		t.Fatalf("run labeled %q twoTier=%v", run.Model, run.TwoTier)
	}
	if len(run.All) != 12 {
		t.Fatalf("got %d points, want 12", len(run.All))
	}
	seen := map[string]bool{}
	for _, p := range run.All {
		seen[p.Topology] = true
		if p.Model != string(ModelAnalytical) {
			t.Errorf("point %+v not labeled analytical", p)
		}
		if p.SatRate <= 0 || p.Latency <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	for _, name := range noc.TopologyNames() {
		if !seen[name] {
			t.Errorf("topology %s missing from sweep", name)
		}
	}
	if len(run.Frontier) == 0 || len(run.Frontier) > len(run.All) {
		t.Fatalf("frontier size %d of %d", len(run.Frontier), len(run.All))
	}
	inAll := map[TopoPoint]bool{}
	for _, p := range run.All {
		inAll[p] = true
	}
	for _, p := range run.Frontier {
		if !inAll[p] {
			t.Errorf("frontier point %+v not in All", p)
		}
		for _, q := range run.All {
			if dominatesTopo(q, p) {
				t.Errorf("frontier point %+v dominated by %+v", p, q)
			}
		}
	}
}

// TestExploreTopologiesSpaceValidation pins the enumeration errors.
func TestExploreTopologiesSpaceValidation(t *testing.T) {
	if _, err := ExploreTopologiesCtx(context.Background(), TopoSweepSpace{Side: 1}, TopoSweepOpts{}); err == nil {
		t.Error("side 1 accepted")
	}
	if _, err := ExploreTopologiesCtx(context.Background(), TopoSweepSpace{Side: 8, Topologies: []string{"torus"}}, TopoSweepOpts{}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := ExploreTopologiesCtx(context.Background(), TopoSweepSpace{Side: 4, FaultCounts: []int{40}}, TopoSweepOpts{}); err == nil {
		t.Error("out-of-range fault count accepted")
	}
	combos, err := enumerateTopoSpace(TopoSweepSpace{Side: 8, Topologies: []string{"Express", " mesh "}, FaultCounts: []int{0, 3}, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies x (1 fault-free + 3 trials of 3 faults).
	if len(combos) != 8 {
		t.Fatalf("got %d combos, want 8", len(combos))
	}
	if combos[0].topology != noc.TopoExpress {
		t.Errorf("names not normalized: %+v", combos[0])
	}
}
