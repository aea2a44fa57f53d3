package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"waferscale/internal/arch"
	"waferscale/internal/parallel"
)

// ChaosResult is the outcome of a workload run under runtime fault
// injection. Unlike WorkloadResult it is produced even when the run
// degrades: the machine either quiesces (every surviving core halts)
// or the cycle budget expires — it never hangs and never panics.
type ChaosResult struct {
	// Dist is the best-effort distance readback; entries whose backing
	// memory was lost read as whatever the shadow holds (zeroed).
	Dist []int32
	// Cycles is the machine cycle count when the run ended.
	Cycles int64
	// Completed reports that every started core halted (or faulted)
	// within the budget; false means the budget expired first (e.g. a
	// barrier waiting on a dead worker).
	Completed bool
	// RunErr carries the budget-exhaustion error or the first core
	// fault, for diagnostics; the run result is still valid.
	RunErr error
	// ReadErrors counts distance words that could not be read back at
	// all (owner dead with no fallback).
	ReadErrors int
	// Report is the machine's structured degradation account.
	Report DegradationReport
}

// RunSSSPUnderFaults runs the SSSP/BFS kernel like RunSSSP but
// tolerates mid-run faults: cores faulting, tiles dying, and budget
// exhaustion all produce a ChaosResult instead of an error. Attach a
// fault schedule to the machine before calling. The returned error is
// non-nil only for setup problems (bad graph, unloadable program).
func RunSSSPUnderFaults(m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*ChaosResult, error) {
	return RunSSSPUnderFaultsCtx(context.Background(), m, g, src, workers, maxCycles)
}

// RunSSSPUnderFaultsCtx is RunSSSPUnderFaults with cancellation: the
// machine checks ctx at cycle-boundary strides (see Machine.RunCtx),
// and on cancellation the setup error returned is ctx.Err() — no
// ChaosResult is produced, since a mid-run snapshot would look like a
// budget expiry rather than a cancelled run.
func RunSSSPUnderFaultsCtx(ctx context.Context, m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*ChaosResult, error) {
	distA, err := layoutSSSP(m, g, src, len(workers))
	if err != nil {
		return nil, err
	}
	prog, err := assembleKernel(RelaxKernelSource)
	if err != nil {
		return nil, err
	}
	runErr := RunKernel(ctx, m, prog, arch.GlobalBase, workers, maxCycles)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var budget *BudgetError
	if runErr != nil && !errors.As(runErr, &budget) {
		return nil, runErr
	}

	res := &ChaosResult{RunErr: runErr}
	res.Completed = res.RunErr == nil
	if res.RunErr == nil {
		if faults := m.Faults(); len(faults) > 0 {
			res.RunErr = fmt.Errorf("sim: cores faulted: %v", faults[0])
		}
	}
	res.Cycles = m.Cycle()
	res.Report = m.Degradation()

	res.Dist = make([]int32, g.N)
	for i := range res.Dist {
		v, err := m.ReadGlobal32(distA + uint32(4*i))
		if err != nil {
			res.Dist[i] = Infinity
			res.ReadErrors++
			continue
		}
		res.Dist[i] = int32(v)
	}
	return res, nil
}

// Chaos sweeps. Every chaos driver (core's BFS survival curve,
// workload's operator-graph one) runs seeded trials with tiles dying
// mid-run and reports, per kill count, how many trials completed and
// how many still verified against the host reference. The drivers
// differ only in what a trial runs; the sweep below owns the rest: the
// kill-count loop, the trial pool, the fault-free collapse, progress,
// aggregation and the table.

// ChaosPoint is one row of a survival curve. Its untagged field names
// are the serve layer's stored wire format.
type ChaosPoint struct {
	Kills     int
	Trials    int
	Completed int // runs that quiesced within the cycle budget
	Verified  int // runs whose output still matched the host reference

	// Mean per-trial degradation work.
	MeanRetries float64
	MeanRelays  float64
	MeanLostKiB float64
	MeanCycles  float64
}

// CompletedRate returns the fraction of trials that quiesced.
func (p ChaosPoint) CompletedRate() float64 { return float64(p.Completed) / float64(p.Trials) }

// VerifiedRate returns the fraction of trials with a correct answer.
func (p ChaosPoint) VerifiedRate() float64 { return float64(p.Verified) / float64(p.Trials) }

// ChaosTrial is one trial's outcome.
type ChaosTrial struct {
	Completed, Verified                bool
	Retries, Relays, LostBytes, Cycles int64
}

// NewChaosTrial records a finished run from its degradation report.
// Verification is the driver's call.
func NewChaosTrial(completed bool, cycles int64, rep DegradationReport) ChaosTrial {
	return ChaosTrial{
		Completed: completed,
		Retries:   rep.RetriedOps,
		Relays:    rep.RelayedRequests + rep.RelayedResponses,
		LostBytes: rep.LostSharedBytes,
		Cycles:    cycles,
	}
}

// ChaosSweep is the part of a chaos configuration every driver shares.
type ChaosSweep struct {
	Trials int   // runs per kill count
	Kills  []int // tile kill counts to sweep
	// TrialWorkers bounds the host pool running trials (0 = GOMAXPROCS).
	// Results are bit-identical at any setting.
	TrialWorkers int
	// Progress, when non-nil, is called after every finished trial with
	// the trials done so far, the total, and the machine cycles those
	// trials stepped. It runs on trial goroutines and must be safe for
	// concurrent use.
	Progress func(done, total int, cycles int64)
}

// Validate checks the sweep against a side x side machine.
func (s ChaosSweep) Validate(side int) error {
	if side < 2 {
		return fmt.Errorf("chaos side %d must be >= 2", side)
	}
	if s.Trials < 1 {
		return fmt.Errorf("chaos needs >= 1 trial")
	}
	for _, k := range s.Kills {
		if k < 0 || k > side*side {
			return fmt.Errorf("kill count %d outside 0..%d", k, side*side)
		}
	}
	return nil
}

// RunChaosSweep runs every kill count's trials through trial, fanned
// out on the bounded host pool, and returns one point per kill count.
// trial builds and runs trial i of a kill count from cycle 0. A
// fault-free trial ignores its seed, so kill count 0 runs a single
// trial and counts it Trials times. On an error (including
// cancellation) it returns the points for the kill counts finished
// before it.
func RunChaosSweep(ctx context.Context, s ChaosSweep, trial func(ctx context.Context, kills, i int) (ChaosTrial, error)) ([]ChaosPoint, error) {
	var done, cycles atomic.Int64
	total := s.Trials * len(s.Kills)
	report := func(t ChaosTrial) {
		if s.Progress != nil {
			s.Progress(int(done.Add(1)), total, cycles.Add(t.Cycles))
		}
	}

	points := make([]ChaosPoint, 0, len(s.Kills))
	for _, kills := range s.Kills {
		n := s.Trials
		if kills == 0 {
			n = 1
		}
		trials := make([]ChaosTrial, n)
		err := parallel.ForEach(ctx, n, s.TrialWorkers, func(i int) error {
			t, err := trial(ctx, kills, i)
			if err != nil {
				return err
			}
			trials[i] = t
			report(t)
			return nil
		})
		if err != nil {
			return points, err
		}
		for len(trials) < s.Trials {
			trials = append(trials, trials[0])
			report(trials[0])
		}
		p := ChaosPoint{Kills: kills, Trials: s.Trials}
		for _, t := range trials {
			if t.Completed {
				p.Completed++
			}
			if t.Verified {
				p.Verified++
			}
			p.MeanRetries += float64(t.Retries)
			p.MeanRelays += float64(t.Relays)
			p.MeanLostKiB += float64(t.LostBytes) / 1024
			p.MeanCycles += float64(t.Cycles)
		}
		nt := float64(s.Trials)
		p.MeanRetries /= nt
		p.MeanRelays /= nt
		p.MeanLostKiB /= nt
		p.MeanCycles /= nt
		points = append(points, p)
	}
	return points, nil
}

// FormatChaos renders a survival curve as an aligned text table.
func FormatChaos(points []ChaosPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %9s  %9s  %9s  %9s  %9s  %11s\n",
		"kills", "completed", "verified", "retries", "relays", "lostKiB", "meanCycles")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d  %8.1f%%  %8.1f%%  %9.1f  %9.1f  %9.1f  %11.0f\n",
			p.Kills, p.CompletedRate()*100, p.VerifiedRate()*100,
			p.MeanRetries, p.MeanRelays, p.MeanLostKiB, p.MeanCycles)
	}
	return b.String()
}
