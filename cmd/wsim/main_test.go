package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliEnv makes the test binary act as the CLI: TestMain hands its
// arguments to main, so tests run wsim in a child process and see its
// real stdout, stderr and exit status.
const cliEnv = "WSIM_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs `wsim args...` and returns its stdout, stderr and exit
// code.
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

// TestFaultCountOutOfRange: a fault count outside 0..tiles is an input
// error on both the single-run and the -trials path — exit 1 with one
// line on stderr, before anything runs — not a panic from the fault
// sampler or a silently fault-free run.
func TestFaultCountOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-side", "4", "-faults", "99999"},
		{"-side", "4", "-faults", "17"},
		{"-side", "4", "-faults", "-1"},
		{"-side", "4", "-faults", "-1", "-trials", "2"},
		{"-side", "4", "-faults", "17", "-trials", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, stderr, code := runCLI(t, args...)
			want := "wsim: faults " + args[3] + " outside 0..16\n"
			if code != 1 || out != "" || stderr != want {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, out, stderr, want)
			}
		})
	}
}

// TestTrialsBelowOne: -trials 1 is the single run, and a trial count
// below one is an input error (exit 1, one line on stderr) rather than
// a silent single run.
func TestTrialsBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		t.Run(n, func(t *testing.T) {
			out, stderr, code := runCLI(t, "-side", "4", "-trials", n)
			want := "wsim: trials " + n + " below 1\n"
			if code != 1 || out != "" || stderr != want {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, out, stderr, want)
			}
		})
	}
}

// TestFaultCountAtBounds: the range is inclusive, so every tile of a
// 2×2 array may die and the run still ends with a degradation report
// and exit 0.
func TestFaultCountAtBounds(t *testing.T) {
	out, stderr, code := runCLI(t, "-side", "2", "-faults", "4", "-vertices", "8", "-edges", "8",
		"-workers", "4", "-fault-at-cycle", "10", "-max-cycles", "20000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "fault schedule: 4 events") || !strings.Contains(out, "tiles killed      4 ") {
		t.Fatalf("want a 4-kill schedule and its degradation report, got:\n%s", out)
	}
}

// TestRemovedLatencyModelFlag: remote ops have one timing semantics,
// the cycle-stepped network, so -latency-model is an unknown flag.
func TestRemovedLatencyModelFlag(t *testing.T) {
	_, stderr, code := runCLI(t, "-latency-model", "analytical")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -latency-model") {
		t.Fatalf("exit %d, stderr %q; want exit 2 for an unknown flag", code, stderr)
	}
}

// TestTrialsRejectsKill: every -trials run draws its own -faults
// victims, so explicit -kill coordinates have no trial to land in. The
// combination is an input error (exit 1, one line on stderr, nothing on
// stdout), not a sweep that silently ignores the kills.
func TestTrialsRejectsKill(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bfs", "-faults", "1", "-trials", "2", "-kill", "1,1;2,2"},
		{"-workload", "sssp", "-faults", "2", "-trials", "5", "-kill", "0,0"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, stderr, code := runCLI(t, args...)
			trials := args[5]
			want := "wsim: -kill cannot be combined with -trials " + trials + ": each trial draws its own -faults victims\n"
			if code != 1 || out != "" || stderr != want {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, out, stderr, want)
			}
		})
	}
}

// TestRemovedForkFlag: every -trials run builds its machine and runs
// it from cycle 0, so -fork is an unknown flag.
func TestRemovedForkFlag(t *testing.T) {
	_, stderr, code := runCLI(t, "-fork=false", "-faults", "1", "-trials", "2")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -fork") {
		t.Fatalf("exit %d, stderr %q; want exit 2 for an unknown flag", code, stderr)
	}
}

// kernelGoldens pins every kernel path wsim drives: the SSSP/BFS
// relaxation (healthy, profiled, under faults and as a -trials sweep),
// the matvec and histogram kernels and the operator-graph workload.
// Each file holds the stdout of the CLI from before every kernel
// launched through one path; regenerate one with
// `go run ./cmd/wsim ARGS > cmd/wsim/testdata/NAME.golden` only for an
// intended output change.
var kernelGoldens = []struct {
	name string
	args []string
}{
	{"bfs", []string{"-workload", "bfs", "-side", "4"}},
	{"sssp_profile", []string{"-workload", "sssp", "-profile", "-side", "4"}},
	{"matvec", []string{"-workload", "matvec", "-side", "4"}},
	{"hist", []string{"-workload", "hist", "-side", "4"}},
	{"transformer", []string{"-workload", "transformer", "-side", "4"}},
	{"bfs_faults", []string{"-workload", "bfs", "-side", "8", "-faults", "3", "-fault-seed", "7"}},
	{"bfs_trials", []string{"-workload", "bfs", "-side", "8", "-faults", "3", "-trials", "4", "-max-cycles", "200000"}},
	// The default 50M-cycle budget: two of the trials never pass the
	// barrier and spin until it expires.
	{"bfs_trials_default", []string{"-workload", "bfs", "-side", "8", "-faults", "3", "-trials", "4"}},
}

func TestKernelGoldens(t *testing.T) {
	for _, g := range kernelGoldens {
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
