package main

import (
	"maps"
	"strings"
	"testing"
)

// TestWorkloads runs every workload for its set-ups plus one op per
// client, untraced and traced at one seed. Both runs must be correct,
// emit the metrics BENCHMARK.json lists, and report identical guest
// statistics; together the traced runs must produce every per-layer
// metric.
func TestWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the serve workload's store and journal
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness defines %d", len(sp.Workloads), len(workloads))
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		plain, err := run(w, 1, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := run(w, 1, 0, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*runResult{plain, traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted < w.clients {
				t.Errorf("%s (traced %v): %d of %d ops failed: %v", w.name, r.Traced, r.Failed, r.Attempted, r.Failures)
			}
		}
		plain.Metrics["peak_rss_mb"] = 1 // measured by the parent process
		if _, err := specMetrics(sp, plain); err != nil {
			t.Error(err)
		}
		for _, m := range sp.EndToEnd {
			if v := plain.Metrics[m.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		for name := range traced.Metrics {
			produced[name] = true
		}
		for _, name := range []string{"go.alloc_mb_per_op", "go.gc_per_op", "ops_per_s", "latency_p50_ms"} {
			if _, ok := traced.Metrics[name]; !ok {
				t.Errorf("%s: traced run did not produce %s", w.name, name)
			}
		}
		if !maps.Equal(plain.Guest, traced.Guest) {
			t.Errorf("%s: guest statistics differ between two runs of seed 1:\n%v\n%v", w.name, plain.Guest, traced.Guest)
		}
		if pct := traced.SelfSumPct; pct < 90 || pct > 110 {
			t.Errorf("%s: span self times sum to %.1f%% of op wall time, want within 10%%", w.name, pct)
		}
	}
	var missing []string
	for _, m := range sp.PerLayer {
		if !produced[m.Name] {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("no workload produced per-layer metrics %s", strings.Join(missing, ", "))
	}
}

// TestFig7SeedChangesTraffic: the seed is the only input that varies,
// and it must reach the simulated traffic.
func TestFig7SeedChangesTraffic(t *testing.T) {
	t.Parallel()
	guest := func(seed int64) map[string]float64 {
		in, err := setupFig7(seed)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		g, err := in.op(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := guest(1), guest(2)
	if maps.Equal(a, b) {
		t.Errorf("seeds 1 and 2 gave identical fig7-wafer guest statistics %v", a)
	}
}
