package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
)

// The two-tier contract: screening with the analytical fast path and
// verifying only the survivors with the cycle backend must return
// exactly the frontier an exhaustive cycle-accurate run finds. The
// pinned space is the CI differential (same grid the workflow runs
// under -race).
func TestTwoTierMatchesExhaustiveFrontier(t *testing.T) {
	d := NewDesign()
	space := DefaultParetoSpace()
	ref, err := d.ExploreParetoCtx(context.Background(), space, ParetoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := ref.Frontier
	run, err := d.ExploreParetoCtx(context.Background(), space, ParetoOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	if !run.TwoTier || run.Model != string(ModelCycle) {
		t.Fatalf("two-tier run mislabeled: TwoTier=%v Model=%q", run.TwoTier, run.Model)
	}
	if !reflect.DeepEqual(run.Frontier, exhaustive) {
		t.Errorf("two-tier frontier diverges from exhaustive:\n two-tier:  %+v\n exhaustive: %+v",
			run.Frontier, exhaustive)
	}
	total := len(space.Sides) * len(space.EdgeV) * len(space.Pillars)
	if len(run.Screened) != total {
		t.Errorf("screened %d points, want the full %d-point grid", len(run.Screened), total)
	}
	if run.Survivors+run.ScreenedOut != total {
		t.Errorf("survivors %d + screened-out %d != %d", run.Survivors, run.ScreenedOut, total)
	}
	if run.ScreenedOut == 0 {
		t.Error("screen pruned nothing: two-tier saved no exact evaluations")
	}
	for _, p := range run.Screened {
		if p.Model != string(ModelAnalytical) {
			t.Fatalf("screened point labeled %q, want %q", p.Model, ModelAnalytical)
		}
	}
	for _, p := range run.Frontier {
		if p.Model != string(ModelCycle) {
			t.Fatalf("verified frontier point labeled %q, want %q", p.Model, ModelCycle)
		}
	}
}

// The model-error report must cover every survivor and show the screen
// tracking the oracle: near-exact droop voltages, preserved orderings,
// no feasibility flips outside the band.
func TestTwoTierErrorReport(t *testing.T) {
	d := NewDesign()
	run, err := d.ExploreParetoCtx(context.Background(), DefaultParetoSpace(), ParetoOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := run.ModelError
	if rep == nil {
		t.Fatal("two-tier run missing the model-error report")
	}
	if rep.Points != run.Survivors || len(rep.PerPoint) != rep.Points {
		t.Fatalf("report covers %d points (%d per-point rows), want %d survivors",
			rep.Points, len(rep.PerPoint), run.Survivors)
	}
	// The spectral droop solve matches SOR to ~1e-4 V; percent error on
	// >1.2 V levels must be far below 1%.
	if rep.CenterVoltMaxPct > 0.1 {
		t.Errorf("center-volt max error %.4f%%, want < 0.1%%", rep.CenterVoltMaxPct)
	}
	if rep.CenterVoltMeanPct > rep.CenterVoltMaxPct {
		t.Error("mean error above max error")
	}
	if rep.FeasibilityMatches != rep.Points {
		t.Errorf("feasibility flipped on %d survivors", rep.Points-rep.FeasibilityMatches)
	}
	if rep.CenterVoltRankCorr < 0.99 {
		t.Errorf("center-volt rank correlation %.3f, want >= 0.99", rep.CenterVoltRankCorr)
	}
	if rep.NoCLatencyRankCorr < 0.8 {
		t.Errorf("noc-latency rank correlation %.3f, want >= 0.8", rep.NoCLatencyRankCorr)
	}
	// The analytical NoC model's documented accuracy budget (see
	// noc/analytical accuracy suite) bounds the saturation and latency
	// errors the report can show.
	if rep.NoCSatMaxPct > 30 {
		t.Errorf("noc saturation max error %.1f%%, want <= 30%%", rep.NoCSatMaxPct)
	}
	if rep.NoCLatencyMaxPct > 30 {
		t.Errorf("noc latency max error %.1f%%, want <= 30%%", rep.NoCLatencyMaxPct)
	}
}

// Two-tier results must be bit-identical at any worker count.
func TestTwoTierWorkerInvariance(t *testing.T) {
	space := ParetoSpace{Sides: []int{16, 24, 32}, EdgeV: []float64{2.0, 3.0}, Pillars: []int{1, 2}}
	serial := NewDesign()
	serial.Workers = 1
	ref, err := serial.ExploreParetoCtx(context.Background(), space, ParetoOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	par := NewDesign()
	par.Workers = 8
	got, err := par.ExploreParetoCtx(context.Background(), space, ParetoOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("two-tier run differs between 1 and 8 workers:\n 1: %+v\n 8: %+v", ref, got)
	}
}

// A single-tier analytical run evaluates every point with the fast
// path and labels it as approximate.
func TestAnalyticalParetoLabeled(t *testing.T) {
	d := NewDesign()
	run, err := d.ExploreParetoCtx(context.Background(), DefaultParetoSpace(), ParetoOpts{Model: ModelAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	if run.Model != string(ModelAnalytical) {
		t.Fatalf("run labeled %q, want %q", run.Model, ModelAnalytical)
	}
	if len(run.All) == 0 || len(run.Frontier) == 0 {
		t.Fatalf("all=%d frontier=%d", len(run.All), len(run.Frontier))
	}
	for _, p := range run.All {
		if p.Model != string(ModelAnalytical) {
			t.Fatalf("point labeled %q, want %q", p.Model, ModelAnalytical)
		}
	}
}

// The analytical array sweep must agree with the cycle sweep on droop
// voltage (near-exact) and regulation verdicts, and stay within the
// NoC model's accuracy budget on the saturation estimate.
func TestSweepArraySizeAnalytical(t *testing.T) {
	d := NewDesign()
	sides := []int{8, 16, 32}
	exact, err := d.SweepArraySizeCtx(context.Background(), sides, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := d.SweepArraySizeCtx(context.Background(), sides, SweepOpts{Model: ModelAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sides {
		e, a := exact[i], approx[i]
		if e.Model != string(ModelCycle) || a.Model != string(ModelAnalytical) {
			t.Fatalf("labels: exact %q approx %q", e.Model, a.Model)
		}
		if math.Abs(e.CenterVolt-a.CenterVolt) > 1e-3 {
			t.Errorf("side %d: center volt cycle %.4f vs analytical %.4f", sides[i], e.CenterVolt, a.CenterVolt)
		}
		if e.RegulationOK != a.RegulationOK {
			t.Errorf("side %d: regulation verdict flipped (cycle %v, analytical %v)",
				sides[i], e.RegulationOK, a.RegulationOK)
		}
		if rel := math.Abs(e.NoCSatRate-a.NoCSatRate) / e.NoCSatRate; rel > 0.30 {
			t.Errorf("side %d: noc saturation cycle %.4f vs analytical %.4f (rel %.2f)",
				sides[i], e.NoCSatRate, a.NoCSatRate, rel)
		}
		// The arithmetic objectives are backend-independent.
		if e.ThroughputT != a.ThroughputT || e.EdgeCurrentA != a.EdgeCurrentA || e.LoadTime != a.LoadTime {
			t.Errorf("side %d: arithmetic fields differ between backends", sides[i])
		}
	}
}

// Progress hooks: the sweep reports a 0-start and one tick per point,
// strictly increasing; the two-tier exploration reports its stages in
// order with complete counts.
func TestProgressHooks(t *testing.T) {
	d := NewDesign()
	var mu sync.Mutex
	var sweepDone []int
	_, err := d.SweepArraySizeCtx(context.Background(), []int{8, 12, 16}, SweepOpts{
		Model: ModelAnalytical,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 3 {
				t.Errorf("sweep progress total %d, want 3", total)
			}
			sweepDone = append(sweepDone, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweepDone) != 4 || sweepDone[0] != 0 || sweepDone[3] != 3 {
		t.Errorf("sweep progress sequence %v, want [0 1 2 3]", sweepDone)
	}
	for i := 1; i < len(sweepDone); i++ {
		if sweepDone[i] != sweepDone[i-1]+1 {
			t.Errorf("sweep progress not strictly increasing: %v", sweepDone)
		}
	}

	space := ParetoSpace{Sides: []int{16, 24}, EdgeV: []float64{2.5}, Pillars: []int{1, 2}}
	type stageCount struct {
		stage string
		last  int
		total int
	}
	var stages []stageCount
	run, err := d.ExploreParetoCtx(context.Background(), space, ParetoOpts{
		TwoTier: true,
		Progress: func(stage string, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if len(stages) == 0 || stages[len(stages)-1].stage != stage {
				stages = append(stages, stageCount{stage: stage, total: total})
			}
			s := &stages[len(stages)-1]
			if done < s.last {
				t.Errorf("stage %s progress went backwards: %d after %d", stage, done, s.last)
			}
			s.last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0].stage != "screen" || stages[1].stage != "verify" {
		t.Fatalf("stages %+v, want screen then verify", stages)
	}
	if stages[0].last != stages[0].total || stages[0].total != 4 {
		t.Errorf("screen stage finished %d/%d, want 4/4", stages[0].last, stages[0].total)
	}
	if stages[1].last != stages[1].total || stages[1].total != run.Survivors {
		t.Errorf("verify stage finished %d/%d, want %d survivors", stages[1].last, stages[1].total, run.Survivors)
	}
}

// Cancellation and validation.
func TestExploreParetoCtxErrors(t *testing.T) {
	d := NewDesign()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.ExploreParetoCtx(ctx, DefaultParetoSpace(), ParetoOpts{Model: ModelAnalytical}); err == nil {
		t.Error("cancelled context not honored")
	}
	if _, err := d.ExploreParetoCtx(context.Background(), ParetoSpace{}, ParetoOpts{}); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := d.ExploreParetoCtx(context.Background(), DefaultParetoSpace(), ParetoOpts{Model: "magic"}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := d.SweepArraySizeCtx(context.Background(), []int{8}, SweepOpts{Model: "magic"}); err == nil {
		t.Error("unknown sweep model accepted")
	}
}
