package main

import (
	"fmt"
	"maps"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A run builds its workload and runs the warm-up op at least
// minSetups times, and up to maxSetups times while the set-ups so far
// took less than setupBudget; setup_s is the median, so one slow
// set-up (a GC at the wrong moment, a neighbour on the host) does not
// move it, and cheap set-ups get more samples.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// clients is the number of closed-loop goroutines issuing ops.
	clients int
	// setup builds the workload's inputs from the seed. The harness
	// times it together with one warm-up op.
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload, ready to run ops.
type instance interface {
	// op runs op number i, recording its layer calls under root (nil
	// when the run is untraced). guest holds the simulated statistics
	// the op produced: every op of a run has identical inputs, so every
	// op must return the same guest values. A workload whose ops differ
	// by design (serve: op i is request i) returns nil.
	op(root *span, i int) (guest map[string]float64, err error)
	// layers reduces the traced run, and the guest statistics every op
	// produced, to the workload's per-layer metrics.
	layers(ts traceSummary, guest map[string]float64) map[string]float64
	close()
}

var workloads = []workloadDef{
	{name: "fig7-wafer", clients: 1, setup: setupFig7},
	{name: "transformer", clients: 1, setup: setupTransformer},
	{name: "chaos", clients: 1, setup: setupChaos},
	{name: "dse", clients: 1, setup: setupDSE},
	{name: "serve", clients: 2, setup: setupServe},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runResult is one run of one workload, as a child process reports it.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds setup_s, ops_per_s and latency_p50_ms of every run,
	// peak_rss_mb of an untraced one, and the per-layer metrics of a
	// traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Guest holds the warm-up op's simulated statistics.
	Guest map[string]float64 `json:"guest,omitempty"`
	// SetupSamples are the set-up times setup_s is the median of.
	SetupSamples []float64 `json:"setupSamples"`
	// SelfSumPct is the traced run's summed span self time as a share
	// of its op wall time (see traceSummary).
	SelfSumPct float64 `json:"selfSumPct,omitempty"`
	// TraceOverheadPct is how much slower ops ran traced than untraced
	// at the same seed, when both runs were made.
	TraceOverheadPct *float64 `json:"traceOverheadPct,omitempty"`
}

const maxFailuresKept = 5

// run sets the workload up several times, then runs ops from
// w.clients closed-loop goroutines until measure has passed; each
// client runs at least one op.
func run(w workloadDef, seed int64, measure time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: measure.Seconds(), Traced: tr != nil, Metrics: map[string]float64{}}
	var inst instance
	setupStart := time.Now()
	for k := 0; k < maxSetups && (k < minSetups || time.Since(setupStart) < setupBudget); k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		in, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		guest, err := in.op(nil, 0)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}
		res.SetupSamples = append(res.SetupSamples, time.Since(t0).Seconds())
		if k > 0 && !maps.Equal(guest, res.Guest) {
			in.close()
			return nil, fmt.Errorf("%s: warm-up guest statistics differ between set-ups of one seed", w.name)
		}
		inst, res.Guest = in, guest
	}
	defer inst.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var (
		mu        sync.Mutex
		latencies []float64
		next      atomic.Int64 // op 0 was the warm-up
		wg        sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(measure)
	for lane := 0; lane < w.clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for more := true; more; more = time.Now().Before(deadline) {
				i := int(next.Add(1))
				t0 := time.Now()
				root := tr.root(i, lane, "op."+w.name)
				guest, err := inst.op(root, i)
				root.end()
				d := time.Since(t0)
				if err == nil && !maps.Equal(guest, res.Guest) {
					err = fmt.Errorf("guest statistics diverged from the warm-up op: %v vs %v", guest, res.Guest)
				}
				mu.Lock()
				res.Attempted++
				if err == nil {
					latencies = append(latencies, float64(d)/float64(time.Millisecond))
				} else {
					res.Failed++
					if len(res.Failures) < maxFailuresKept {
						res.Failures = append(res.Failures, fmt.Sprintf("op %d: %v", i, err))
					}
				}
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	res.Correct = res.Failed == 0 && res.Attempted > 0

	// Throughput and latency count only the ops that passed their
	// checks. Every run records them: untraced runs for compare and the
	// tracing overhead, traced runs as per-layer metrics.
	res.Metrics["setup_s"] = median(res.SetupSamples)
	res.Metrics["ops_per_s"] = float64(len(latencies)) / elapsed.Seconds()
	res.Metrics["latency_p50_ms"] = median(latencies)
	if tr == nil {
		return res, nil
	}
	ts := tr.summary()
	res.SelfSumPct = ts.selfSumPct
	maps.Copy(res.Metrics, res.Guest)
	maps.Copy(res.Metrics, inst.layers(ts, res.Guest))
	ops := float64(res.Attempted)
	res.Metrics["go.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops
	res.Metrics["go.gc_per_op"] = float64(after.NumGC-before.NumGC) / ops
	return res, nil
}

// specMetrics picks the metrics BENCHMARK.json lists out of a run's
// measurements. A per-layer metric the workload does not exercise
// reads 0; an end-to-end metric every workload must produce.
func specMetrics(sp *benchSpec, r *runResult) (map[string]float64, error) {
	out := map[string]float64{}
	var missing []string
	for _, m := range sp.metrics(r.Traced) {
		v, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			missing = append(missing, m.Name)
		}
		out[m.Name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: run did not produce end-to-end metrics %v", r.Workload, missing)
	}
	return out, nil
}
