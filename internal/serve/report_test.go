package serve

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestReportJobStreamsTrials: a report job streams the Fig. 6 Monte
// Carlo's per-trial progress, the bulk of its run, so the stall
// watchdog can tell it from a stuck job, and cancelling the job stops
// the sweep.
func TestReportJobStreamsTrials(t *testing.T) {
	const body = `{"kind":"report","report":{"trials":16}}`
	var sp Spec
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	last, silence := start, time.Duration(0)
	var done []int64
	_, err := Run(context.Background(), &sp, 1, func(ev Event) {
		now := time.Now()
		silence = max(silence, now.Sub(last))
		last = now
		if ev.Stage == "trials" {
			if ev.Total != 3*16 {
				t.Errorf("trial event total %d, want 48 (3 fault counts x 16 trials)", ev.Total)
			}
			done = append(done, ev.Done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	job := time.Since(start)
	if len(done) != 48 || done[len(done)-1] != 48 {
		t.Fatalf("trial events %v: want one per trial, ending at 48", done)
	}
	if job < 4*silence {
		t.Fatalf("job took %v with a silence of %v between progress events: want under 1/4 of the job", job, silence)
	}
	requireNoStalls(t, body, job, silence)

	// Cancelling at the first trial stops the sweep well short of the
	// rest.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trials := 0
	_, err = Run(ctx, &sp, 1, func(ev Event) {
		if ev.Stage == "trials" {
			trials++
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled report: err = %v, want context.Canceled", err)
	}
	if trials >= 48 {
		t.Fatalf("cancelled report ran all %d trials", trials)
	}
}
