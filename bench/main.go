// Command bench is the repository benchmark: five workloads that time
// the simulator's layers end to end, from the NoC cycle engine to the
// serving daemon, and a traced mode that splits each op's host time
// into per-layer self times. BENCHMARK.json lists the workloads and
// metrics; bench/README.md explains them.
//
// Run from the repository root, through bench/run.sh, which builds
// this program into .bench_build:
//
//	bash bench/run.sh -seed 1 -out result.json          # all workloads
//	bash bench/run.sh -seed 1 -trace trace.json          # plus traced runs
//	bash bench/run.sh --workload fig7-wafer --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare -base a.json,b.json -head c.json,d.json
//
// With one --workload the last line of standard output is the JSON
// result {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"waferscale/internal/version"
)

const (
	// childProcs is GOMAXPROCS in every workload process: every
	// host-parallel knob of the workloads is 2 as well.
	childProcs = 2
	// childTimeout bounds one workload process.
	childTimeout = 170 * time.Second
)

// hostInfo is the provenance compare checks before comparing results.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostInfo {
	return hostInfo{GOMAXPROCS: childProcs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Host   hostInfo     `json:"host"`
	Commit string       `json:"commit"`
	Runs   []*runResult `json:"runs"`
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = benchMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	out      string
	spec     string
	child    bool
}

func benchMain(args []string) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of the benchmark definition)")
	fs.StringVar(&o.trace, "trace", "0", "0: untraced; 1: traced; a file name: traced, spans written there as Chrome trace JSON")
	fs.StringVar(&o.out, "out", "", "write the full results to this JSON file")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.child {
		return childMain(o)
	}
	sp, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = sp.RunSeconds
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if o.workload == "all" {
		return allMain(o, sp)
	}
	if _, ok := workloadByName(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	r, err := spawn(o.workload, o.seed, o.seconds, o.trace)
	if err != nil {
		return err
	}
	metrics, err := specMetrics(sp, r)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeResults(o.out, []*runResult{r}); err != nil {
			return err
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range sp.metrics(r.Traced) {
		line.Metrics[m.Name] = value{metrics[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// allMain runs every workload, untraced and, with -trace, traced too,
// and prints the end-to-end metrics as a table.
func allMain(o options, sp *benchSpec) error {
	var runs []*runResult
	for _, w := range workloads {
		r, err := spawn(w.name, o.seed, o.seconds, "0")
		if err != nil {
			return err
		}
		if _, err := specMetrics(sp, r); err != nil {
			return err
		}
		runs = append(runs, r)
		printRun(os.Stdout, sp, r)
		if o.trace == "0" {
			continue
		}
		trace := o.trace
		if trace != "1" {
			ext := filepath.Ext(trace)
			trace = fmt.Sprintf("%s.%s.seed%d%s", strings.TrimSuffix(trace, ext), w.name, o.seed, ext)
		}
		tr, err := spawn(w.name, o.seed, o.seconds, trace)
		if err != nil {
			return err
		}
		overhead := 100 * (r.Metrics["ops_per_s"] - tr.Metrics["ops_per_s"]) / r.Metrics["ops_per_s"]
		tr.TraceOverheadPct = &overhead
		runs = append(runs, tr)
		fmt.Printf("%-12s traced: %d ops, span self times sum to %.1f%% of op wall time, tracing overhead %.1f%% of ops/s\n",
			w.name, tr.Attempted, tr.SelfSumPct, overhead)
	}
	if o.out != "" {
		return writeResults(o.out, runs)
	}
	return nil
}

func printRun(w io.Writer, sp *benchSpec, r *runResult) {
	fmt.Fprintf(w, "%-12s seed %d: %d ops, %d failed, correct %v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	// The end-to-end metrics, then the per-layer ones an untraced run
	// measures too (throughput and latency).
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "    %-18s %12.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "    failed:", f)
	}
}

func writeResults(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(resultFile{Host: thisHost(), Commit: version.String(), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spawn runs one workload in a child process of this binary with
// GOMAXPROCS fixed, and adds the child's peak resident set size to an
// untraced run's metrics.
func spawn(name string, seed int64, seconds int, trace string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	// The child dies with this process, so a benchmark stopped from
	// outside leaves no workload running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("workload %s: decode result: %w", name, err)
	}
	if !r.Traced {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("peak RSS: no rusage on this platform")
		}
		r.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB
	}
	return &r, nil
}

func childMain(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var tr *tracer
	if o.trace != "0" {
		tr = newTracer()
	}
	r, err := run(w, o.seed, time.Duration(o.seconds)*time.Second, tr)
	if err != nil {
		return err
	}
	if tr != nil && o.trace != "1" {
		if err := tr.writeChrome(o.trace); err != nil {
			return err
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
