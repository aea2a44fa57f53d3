package noc

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"waferscale/internal/geom"
)

// mustFig6 runs the mesh Fig. 6 sweep to completion.
func mustFig6(t testing.TB, grid geom.Grid, counts []int, trials int, seed int64, workers int) []Fig6Point {
	t.Helper()
	pts, err := Fig6SweepCtx(context.Background(), grid, counts, trials, seed, Fig6Opts{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestFig6SweepDriver pins the contract the mesh, topology and chiplet
// sweeps share through one driver: points come back in fault-count
// order, Progress fires once per trial and ends at the total, a cancel
// that lands as the first count finishes returns exactly that count's
// point with context.Canceled, and a trial count below one or a fault
// count outside the population is an error, not a panic.
func TestFig6SweepDriver(t *testing.T) {
	grid := geom.NewGrid(8, 8)
	const seed = 11
	// Each sweep returns the fault counts of the points it finished.
	sweeps := []struct {
		name      string
		maxFaults int
		run       func(ctx context.Context, counts []int, trials int, opts Fig6Opts) ([]int, error)
	}{
		{"mesh", grid.Size(), func(ctx context.Context, counts []int, trials int, opts Fig6Opts) ([]int, error) {
			pts, err := Fig6SweepCtx(ctx, grid, counts, trials, seed, opts)
			return fig6Counts(pts), err
		}},
		{TopoExpress, grid.Size(), func(ctx context.Context, counts []int, trials int, opts Fig6Opts) ([]int, error) {
			pts, err := TopoFig6SweepCtx(ctx, TopoExpress, grid, counts, trials, seed, opts)
			return fig6Counts(pts), err
		}},
		{"chiplet", 2 * grid.Size(), func(ctx context.Context, counts []int, trials int, opts Fig6Opts) ([]int, error) {
			pts, err := ChipletFig6SweepCtx(ctx, grid, counts, trials, seed, opts)
			var got []int
			for _, p := range pts {
				got = append(got, p.Chiplets)
			}
			return got, err
		}},
	}
	counts := []int{1, 3, 5}
	const trials = 5
	total := len(counts) * trials
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				var mu sync.Mutex
				calls, maxDone := 0, 0
				got, err := sw.run(context.Background(), counts, trials, Fig6Opts{Workers: workers, Progress: func(done, tot int) {
					mu.Lock()
					defer mu.Unlock()
					calls++
					maxDone = max(maxDone, done)
					if tot != total {
						t.Errorf("workers=%d: progress total %d, want %d", workers, tot, total)
					}
				}})
				if err != nil || !reflect.DeepEqual(got, counts) {
					t.Fatalf("workers=%d: full run returned counts %v, %v; want %v", workers, got, err, counts)
				}
				if calls != total || maxDone != total {
					t.Errorf("workers=%d: %d progress calls, largest done %d; want %d and %d", workers, calls, maxDone, total, total)
				}

				ctx, cancel := context.WithCancel(context.Background())
				got, err = sw.run(ctx, counts, trials, Fig6Opts{Workers: workers, Progress: func(done, _ int) {
					if done == trials {
						cancel()
					}
				}})
				cancel()
				if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(got, counts[:1]) {
					t.Errorf("workers=%d: cancel after the first count returned %v, %v; want [%d], context.Canceled", workers, got, err, counts[0])
				}
			}
			for _, bad := range []int{0, -1} {
				if _, err := sw.run(context.Background(), counts, bad, Fig6Opts{}); err == nil {
					t.Errorf("trials=%d accepted", bad)
				}
			}
			for _, bad := range []int{-1, sw.maxFaults + 1} {
				if _, err := sw.run(context.Background(), []int{1, bad}, trials, Fig6Opts{}); err == nil {
					t.Errorf("fault count %d accepted", bad)
				}
			}
		})
	}
}

func fig6Counts(pts []Fig6Point) []int {
	var got []int
	for _, p := range pts {
		got = append(got, p.Faults)
	}
	return got
}
