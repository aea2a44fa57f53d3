package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

var jitter = []float64{-1, 0.5, 0, 1, -0.5, 0.2, -0.2, 0.8, -0.8, 0.1}

func TestJudge(t *testing.T) {
	t.Parallel()
	wide := []float64{-30, 25, 0, 30, -25, 10, -10, 20, -20, 5}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"gain lower", series(100, jitter...), series(80, jitter...), "lower", "gain"},
		{"gain higher", series(100, jitter...), series(120, jitter...), "higher", "gain"},
		{"same", series(100, jitter...), series(100, jitter...), "lower", "within bound"},
		{"small loss", series(100, jitter...), series(105, jitter...), "lower", "within bound"},
		{"regression lower", series(100, jitter...), series(130, jitter...), "lower", "regression"},
		{"regression higher", series(100, jitter...), series(70, jitter...), "higher", "regression"},
		{"noisy", series(100, wide...), series(100, jitter...), "lower", "unresolved"},
		{"too few pairs", series(100, jitter[:5]...), series(80, jitter[:5]...), "lower", "within bound"},
		// Wider spread than the bound, but every head run beats every
		// base run: not unresolved, and with too few pairs not a gain.
		{"noisy but separated", series(150, wide[:5]...), series(80, jitter[:5]...), "lower", "within bound"},
	} {
		if got := judge(tc.base, tc.head, tc.better, 0.1).result; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestJudgeWithoutBound: a per-layer metric has no bound, so it is
// never a regression or unresolved, only a gain, a loss, or neither.
func TestJudgeWithoutBound(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"gain", series(100, jitter...), series(80, jitter...), "gain"},
		{"loss", series(100, jitter...), series(130, jitter...), "loss"},
		{"same", series(100, jitter...), series(100, jitter...), "no change shown"},
	} {
		if got := judge(tc.base, tc.head, "lower", 0).result; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestJudgeCountsTiesForNeither(t *testing.T) {
	t.Parallel()
	base := series(100, jitter...)
	head := append([]float64(nil), base...)
	head[0] = 50
	v := judge(base, head, "lower", 0.1)
	if v.wins != 1 || v.pairs != 10 {
		t.Errorf("wins %d of %d pairs, want 1 of 10", v.wins, v.pairs)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// writeResultFile writes runs as a result file in dir and returns its
// path.
func writeResultFile(t *testing.T, dir, name string, host hostInfo, runs []*runResult) string {
	t.Helper()
	data, err := json.Marshal(resultFile{Host: host, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareRefusesUnlikeHosts(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name string, host hostInfo, v float64) string {
		return writeResultFile(t, dir, name, host, []*runResult{{Workload: "fig7-wafer", Attempted: 1, Metrics: map[string]float64{"ops_per_s": v}}})
	}
	h := hostInfo{GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}
	a, b := write("a.json", h, 2), write("b.json", h, 2.1)
	h.NumCPU = 8
	c := write("c.json", h, 2.1)

	var out bytes.Buffer
	if err := compareMain([]string{"-spec", "../BENCHMARK.json", "-base", a, "-head", b}, &out); err != nil {
		t.Fatalf("like hosts: %v", err)
	}
	if !strings.Contains(out.String(), "fig7-wafer") || !strings.Contains(out.String(), "ops_per_s") {
		t.Errorf("compare printed no fig7-wafer ops_per_s row:\n%s", out.String())
	}
	if err := compareMain([]string{"-spec", "../BENCHMARK.json", "-base", a, "-head", c}, &out); err == nil {
		t.Error("compare accepted results from unlike hosts")
	}
}

// TestCompareRefusesGainWithMoreFailures: a head that is faster but
// fails more of its ops regresses on failures and gains nothing.
func TestCompareRefusesGainWithMoreFailures(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	h := hostInfo{GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}
	runs := func(setup float64, failedInFirst int) []*runResult {
		var out []*runResult
		for i, d := range jitter {
			r := &runResult{Workload: "fig7-wafer", Attempted: 10, Metrics: map[string]float64{"setup_s": setup + d/100}}
			if i == 0 {
				r.Failed = failedInFirst
			}
			out = append(out, r)
		}
		return out
	}
	base := writeResultFile(t, dir, "base.json", h, runs(1, 0))
	faster := writeResultFile(t, dir, "faster.json", h, runs(0.8, 0))
	failing := writeResultFile(t, dir, "failing.json", h, runs(0.8, 1))

	row := func(head, metric string) string {
		var out bytes.Buffer
		if err := compareMain([]string{"-spec", "../BENCHMARK.json", "-base", base, "-head", head}, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "fig7-wafer" && f[1] == metric {
				return line
			}
		}
		t.Fatalf("no fig7-wafer %s row in:\n%s", metric, out.String())
		return ""
	}
	if r := row(faster, "setup_s"); !strings.Contains(r, "gain") {
		t.Errorf("faster head without failures: %s", r)
	}
	if r := row(failing, "setup_s"); !strings.Contains(r, "no gain: more ops failed") {
		t.Errorf("faster head with a failure: %s", r)
	}
	if r := row(failing, "failed"); !strings.Contains(r, "regression") {
		t.Errorf("failures row of a head with a failure: %s", r)
	}
}
