package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"waferscale/internal/serve"
)

// cliEnv makes the test binary act as the CLI: TestMain hands its
// arguments to main, so tests run subcommands in a child process and
// see their real stdout, stderr and exit status.
const cliEnv = "WAFERSCALE_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs `waferscale args...` and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exitErr *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// goldens pins the text of every subcommand that runs through
// serve.Run. Each file holds the stdout of the CLI from before those
// subcommands were routed through the daemon's run path; regenerate
// one with `go run ./cmd/waferscale ARGS > testdata/NAME.golden` only
// for an intended output change.
var goldens = []golden{
	{"nocmc", []string{"nocmc", "-trials", "2", "-max", "4"}},
	{"nocmc_chiplet", []string{"nocmc", "-trials", "2", "-max", "4", "-chiplet"}},
	{"nocmc_express", []string{"nocmc", "-trials", "2", "-max", "4", "-topology", "express"}},
	{"throughput", []string{"throughput", "-side", "4", "-faults", "2"}},
	{"throughput_analytical_cmesh", []string{"throughput", "-side", "4", "-faults", "2", "-model", "analytical", "-topology", "cmesh"}},
	{"chaos", []string{"chaos", "-side", "4", "-workers", "8", "-trials", "2", "-kills", "0,1", "-graph", "6", "-max-cycles", "80000", "-seed", "7"}},
	{"pareto_exact", []string{"pareto"}},
	{"pareto_screen", []string{"pareto", "-mode", "screen"}},
	{"pareto_twotier", []string{"pareto", "-mode", "twotier"}},
	{"dse_analytical", []string{"dse", "-model", "analytical"}},
	// Host parallelism never changes the output.
	{"nocmc", []string{"nocmc", "-trials", "2", "-max", "4", "-workers", "1"}},
	{"chaos", []string{"chaos", "-side", "4", "-workers", "8", "-trials", "2", "-kills", "0,1", "-graph", "6", "-max-cycles", "80000", "-seed", "7", "-host-workers", "1"}},
}

// sweepGoldens pins what goldens leaves open: the DSE sweeps off the
// mesh, and toposweep and report, which print from core without
// serve.Run. Each file holds the stdout of the CLI from before the
// sweeps shared one per-point evaluator; regenerate one the same way,
// and only for an intended output change. toposweep's twotier mode
// prints wall times, so only its exact mode is pinned.
var sweepGoldens = []golden{
	{"pareto_screen_vertical", []string{"pareto", "-mode", "screen", "-topology", "vertical"}},
	{"dse_analytical_cmesh", []string{"dse", "-model", "analytical", "-topology", "cmesh"}},
	{"toposweep_exact", []string{"toposweep", "-side", "8", "-mode", "exact", "-faults", "0,4"}},
	{"report", []string{"report", "-trials", "2"}},
	{"report", []string{"report", "-trials", "2", "-workers", "1"}},
}

// workloadGoldens pins the operator-graph workload subcommand: one
// run, another topology and placement, the chaos survival curve and
// the topology x placement sweep. Each file holds the stdout of the CLI
// from before every operator kernel launched through internal/sim's
// one launch path; regenerate one the same way, and only for an
// intended output change.
var workloadGoldens = []golden{
	{"workload", []string{"workload", "-side", "4"}},
	{"workload_express_blocked", []string{"workload", "-side", "4", "-topology", "express", "-placement", "blocked"}},
	{"workload_chaos", []string{"workload", "-side", "4", "-chaos", "-trials", "2", "-kills", "0,1,2"}},
	{"workload_sweep", []string{"workload", "-side", "4", "-sweep"}},
}

func TestRoutedGoldens(t *testing.T) { checkGoldens(t, goldens) }

func TestSweepGoldens(t *testing.T) { checkGoldens(t, sweepGoldens) }

func TestWorkloadGoldens(t *testing.T) { checkGoldens(t, workloadGoldens) }

// golden is one pinned invocation: testdata/name.golden holds the
// stdout of `waferscale args...`.
type golden struct {
	name string
	args []string
}

func checkGoldens(t *testing.T, table []golden) {
	for _, g := range table {
		t.Run(strings.Join(g.args, " "), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out, stderr, code := runCLI(t, g.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if out != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", g.name, out, want)
			}
		})
	}
}

// TestRoutedDefaultIsDaemonDefault: with no flags, each routed
// subcommand asks the daemon's default question.
func TestRoutedDefaultIsDaemonDefault(t *testing.T) {
	for kind := range routedCmds {
		sp, _, err := parseSpec(kind, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want := serve.Spec{Kind: kind}
		if err := want.Normalize(); err != nil {
			t.Fatal(err)
		}
		if sp.CacheKey() != want.CacheKey() {
			t.Errorf("%s: CLI default spec %+v, daemon default %+v", kind, sp, want)
		}
	}
}

// TestThroughputRejectsTooManyFaults: a fault count that leaves no
// healthy tile fails validation instead of printing a table of NaN.
func TestThroughputRejectsTooManyFaults(t *testing.T) {
	out, stderr, code := runCLI(t, "throughput", "-side", "2", "-faults", "4")
	if code != 1 || out != "" || !strings.Contains(stderr, "faults 4 outside 0..3") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, a range error", code, out, stderr)
	}
}

// TestReportRejectsBadCounts: a trial count below one or a fault count
// outside the array fails before any analysis runs instead of
// panicking in the Monte Carlo or the fault-map draw.
func TestReportRejectsBadCounts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"report", "-trials", "-1"}, "trials -1 < 1"},
		{[]string{"report", "-trials", "0"}, "trials 0 < 1"},
		{[]string{"report", "-faults", "-1"}, "faults -1 outside 0..1024"},
		{[]string{"report", "-faults", "1025"}, "faults 1025 outside 0..1024"},
	} {
		out, stderr, code := runCLI(t, c.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout, %q", c.args, code, out, stderr, c.want)
		}
	}
}

// TestArrayFlagsRejected: clock, place, validate, kgd and toposweep
// check their flags up front instead of panicking in the models,
// printing non-physical numbers or silently running other settings.
func TestArrayFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"clock", "-faults", "-1"}, "faults -1 outside 0..64"},
		{[]string{"clock", "-faults", "9999"}, "faults 9999 outside 0..64"},
		{[]string{"clock", "-side", "0"}, "side 0 < 1"},
		{[]string{"clock", "-side", "1"}, "faults 6 outside 0..1"},
		{[]string{"place", "-side", "0"}, "side 0 < 1"},
		{[]string{"place", "-faults", "2000"}, "faults 2000 outside 0..1024"},
		{[]string{"place", "-k", "0"}, "k 0 < 1"},
		{[]string{"validate", "-side", "0"}, "side 0 < 1"},
		{[]string{"validate", "-faults", "-1"}, "faults -1 outside 0..16"},
		{[]string{"kgd", "-batch", "-1"}, "batch -1 < 0"},
		{[]string{"kgd", "-die-yield", "-0.5"}, "die-yield -0.5 outside 0..1"},
		{[]string{"kgd", "-die-yield", "2"}, "die-yield 2 outside 0..1"},
		{[]string{"toposweep", "-trials", "0"}, "trials 0 < 1"},
		{[]string{"toposweep", "-trials", "-1"}, "trials -1 < 1"},
	} {
		out, stderr, code := runCLI(t, c.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout, %q", c.args, code, out, stderr, c.want)
		}
	}
}

// TestNocMCZeroTrialsIsDefault: -trials 0 means the default trial
// count, as it does in the daemon, not a sweep of zero trials.
func TestNocMCZeroTrialsIsDefault(t *testing.T) {
	zero, _, code := runCLI(t, "nocmc", "-trials", "0", "-max", "2")
	def, _, _ := runCLI(t, "nocmc", "-max", "2")
	if code != 0 || zero != def {
		t.Errorf("-trials 0 (exit %d):\n%s\ndefault:\n%s", code, zero, def)
	}
}

func TestIntList(t *testing.T) {
	l := intList{9}
	if err := l.Set("0, 1,4"); err != nil || l.String() != "0,1,4" {
		t.Errorf("Set(\"0, 1,4\") = %v, %v", l, err)
	}
	if err := l.Set("1,x"); err == nil {
		t.Error("Set accepted a non-integer entry")
	}
}
