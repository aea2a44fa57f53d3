package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// fakeTrial is a deterministic stand-in for a machine run: every field
// is a function of (kills, trial), so aggregation is checkable by hand.
func fakeTrial(_ context.Context, kills, i int) (ChaosTrial, error) {
	return ChaosTrial{
		Completed: i%2 == 0,
		Verified:  i%4 == 0,
		Retries:   int64(kills * (i + 1)),
		Relays:    int64(kills),
		LostBytes: int64(1024 * kills),
		Cycles:    int64(1000 + 10*kills + i),
	}, nil
}

// TestChaosSweepAggregates pins the per-kill-count means and counters,
// and the kill-0 collapse: a fault-free trial ignores its seed, so the
// sweep runs one and counts it Trials times.
func TestChaosSweepAggregates(t *testing.T) {
	var mu sync.Mutex
	ran := map[int]int{}
	run := func(ctx context.Context, kills, i int) (ChaosTrial, error) {
		mu.Lock()
		ran[kills]++
		mu.Unlock()
		return fakeTrial(ctx, kills, i)
	}
	points, err := RunChaosSweep(context.Background(), ChaosSweep{Trials: 4, Kills: []int{0, 2}}, run)
	if err != nil {
		t.Fatal(err)
	}
	if ran[0] != 1 || ran[2] != 4 {
		t.Errorf("trials run per kill count = %v, want 1 fault-free and 4 with kills", ran)
	}
	want := []ChaosPoint{
		{Kills: 0, Trials: 4, Completed: 4, Verified: 4, MeanCycles: 1000},
		{Kills: 2, Trials: 4, Completed: 2, Verified: 1, MeanRetries: 5, MeanRelays: 2, MeanLostKiB: 2, MeanCycles: 1021.5},
	}
	if !reflect.DeepEqual(points, want) {
		t.Fatalf("points:\n got %+v\nwant %+v", points, want)
	}
	if out := FormatChaos(points); out == "" {
		t.Error("empty chaos table")
	}
}

// TestChaosSweepWorkerInvariance: the trial pool's width never changes
// the curve, and progress reports every trial exactly once with the
// cycles of the trials done so far, replicated fault-free trials
// included. Run under -race, the concurrent done callbacks are checked
// too.
func TestChaosSweepWorkerInvariance(t *testing.T) {
	sweep := ChaosSweep{Trials: 5, Kills: []int{0, 1, 3}, TrialWorkers: 1}
	ref, err := RunChaosSweep(context.Background(), sweep, fakeTrial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		var mu sync.Mutex
		calls, lastDone := 0, 0
		var cycles int64
		sweep.TrialWorkers = workers
		sweep.Progress = func(done, total int, stepped int64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			lastDone = max(lastDone, done)
			cycles = max(cycles, stepped)
			if total != 15 {
				t.Errorf("progress total %d, want 15", total)
			}
		}
		got, err := RunChaosSweep(context.Background(), sweep, fakeTrial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("TrialWorkers=%d changed the curve:\n%+v\nvs\n%+v", workers, got, ref)
		}
		var wantCycles float64
		for _, p := range ref {
			wantCycles += p.MeanCycles * float64(p.Trials)
		}
		if calls != 15 || lastDone != 15 || cycles != int64(wantCycles) {
			t.Errorf("TrialWorkers=%d: %d progress calls (last done %d, %d cycles), want 15 (15, %d)",
				workers, calls, lastDone, cycles, int64(wantCycles))
		}
	}
}

// TestChaosSweepStopsOnError: a failing kill count ends the sweep with
// the points finished before it.
func TestChaosSweepStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	run := func(ctx context.Context, kills, i int) (ChaosTrial, error) {
		if kills == 2 {
			return ChaosTrial{}, boom
		}
		return fakeTrial(ctx, kills, i)
	}
	points, err := RunChaosSweep(context.Background(), ChaosSweep{Trials: 2, Kills: []int{1, 2, 3}}, run)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(points) != 1 || points[0].Kills != 1 {
		t.Fatalf("points before the failure = %+v, want the kills=1 point", points)
	}
}

func TestChaosSweepValidate(t *testing.T) {
	ok := ChaosSweep{Trials: 1, Kills: []int{0, 16}}
	if err := ok.Validate(4); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		s    ChaosSweep
		side int
	}{
		"side":      {ok, 1},
		"trials":    {ChaosSweep{Kills: []int{0}}, 4},
		"kills":     {ChaosSweep{Trials: 1, Kills: []int{17}}, 4},
		"neg kills": {ChaosSweep{Trials: 1, Kills: []int{-1}}, 4},
	} {
		if err := tc.s.Validate(tc.side); err == nil {
			t.Errorf("%s: invalid sweep accepted", name)
		}
	}
}
