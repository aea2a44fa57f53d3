package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"waferscale/internal/fault"
	"waferscale/internal/inject"
	"waferscale/internal/parallel"
	"waferscale/internal/sim"
)

// Chaos Monte Carlo: the runtime analogue of the Fig. 6 static yield
// sweep. Where noc.Fig6SweepCtx asks "what fraction of randomly-faulty
// wafers is still connected?", RunChaos asks "what fraction of live
// BFS runs survives tiles dying mid-run?" — it executes the kernel on
// the functional simulator under seeded inject.Schedules and reports
// completion (the machine quiesced within budget) and verification
// (the answer still matched the host oracle) rates per kill count.

// ChaosConfig parametrizes a chaos sweep.
type ChaosConfig struct {
	Side       int      // reduced machine array side (Side x Side tiles)
	Workers    int      // BFS worker cores, spread across tiles
	Trials     int      // runs per kill count
	Seed       int64    // master seed; trials derive decorrelated seeds
	Kills      []int    // tile kill counts to sweep
	KillWindow [2]int64 // cycle window kills are drawn from
	MaxCycles  int64    // per-run cycle budget (the never-hang bound)
	GraphSide  int      // workload is BFS on a GraphSide x GraphSide mesh
	// TrialWorkers bounds the host goroutine pool running trials
	// (0 = GOMAXPROCS); each trial machine steps serially, so host
	// parallelism is across trials only. Workers above is the number of
	// *simulated* BFS worker cores, a property of the experiment, not
	// the host.
	TrialWorkers int

	// Fork runs each kill count's trials off a shared warm prefix: the
	// fault-free machine is built and prepared once, advanced to each
	// trial's fork cycle (the cycle before its first injected kill) and
	// forked per trial, instead of replaying the identical fault-free
	// prefix from cycle 0 in every trial. Results are bit-identical to
	// the from-scratch path at any trial-worker setting; only wall clock
	// changes. Fork is a host execution knob like TrialWorkers — it must
	// not enter spec hashes or cache keys.
	Fork bool

	// Progress, when non-nil, is invoked after every completed trial
	// with the cumulative trials finished across the whole sweep, the
	// total (Trials * len(Kills)), and the cumulative machine cycles
	// stepped by completed trials. It runs on the trial worker
	// goroutines and must be safe for concurrent use. It does not
	// affect the results.
	Progress func(trialsDone, trialsTotal int, cyclesStepped int64)
}

// DefaultChaosConfig returns the standard sweep: an 8x8 machine running
// 16-worker BFS with 0..8 kills injected early in the run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Side:       8,
		Workers:    16,
		Trials:     8,
		Seed:       2021,
		Kills:      []int{0, 1, 2, 4, 8},
		KillWindow: [2]int64{500, 5000},
		MaxCycles:  400_000,
		GraphSide:  8,
		Fork:       true,
	}
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if err := c.sweep().Validate(c.Side); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: chaos needs >= 1 worker")
	}
	if c.MaxCycles < 1 {
		return fmt.Errorf("core: chaos needs a positive cycle budget")
	}
	if c.GraphSide < 2 {
		return fmt.Errorf("core: chaos graph side %d must be >= 2", c.GraphSide)
	}
	return nil
}

func (c ChaosConfig) sweep() sim.ChaosSweep {
	return sim.ChaosSweep{
		Trials:       c.Trials,
		Kills:        c.Kills,
		TrialWorkers: c.TrialWorkers,
		Progress:     c.Progress,
	}
}

// ChaosPoint is one row of the survival curve.
type ChaosPoint = sim.ChaosPoint

// RunChaos executes the sweep and returns one point per kill count.
// Trials run on independent machines over the shared bounded pool
// (cfg.TrialWorkers goroutines, 0 = GOMAXPROCS); the outcome is
// deterministic for a fixed config regardless of worker count
// (per-trial seeds are derived via fault.TrialSeed, not drawn from
// shared state).
func (d *Design) RunChaos(cfg ChaosConfig) ([]ChaosPoint, error) {
	return d.RunChaosCtx(context.Background(), cfg)
}

// RunChaosCtx is RunChaos with cancellation: ctx is threaded through
// the trial pool and into every trial machine's cycle loop, so a
// cancel stops work promptly even mid-trial (within a few thousand
// simulated cycles). On cancellation it returns the points for kill
// counts fully completed before the cancel (a prefix of cfg.Kills,
// possibly empty) together with ctx.Err().
func (d *Design) RunChaosCtx(ctx context.Context, cfg ChaosConfig) ([]ChaosPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.GridGraph(cfg.GraphSide, cfg.GraphSide).Unweighted()
	b := &bfsChaos{d: d, cfg: cfg, g: g, want: g.ReferenceSSSP(0)}
	run := sim.EachTrial(b.trial)
	if cfg.Fork {
		run = b.forked
	}
	return sim.RunChaosSweep(ctx, cfg.sweep(), run)
}

// bfsChaos runs the BFS survival sweep's trials.
type bfsChaos struct {
	d    *Design
	cfg  ChaosConfig
	g    *sim.Graph
	want []int32
}

func (b *bfsChaos) schedule(m *sim.Machine, kills, trial int) *inject.Schedule {
	return inject.Random(m.Cfg.Grid(), kills, b.cfg.KillWindow, fault.TrialSeed(b.cfg.Seed, kills, trial), nil)
}

// outcome scores a finished run: it verifies only when the machine
// quiesced with every distance readable and no core faulted.
func (b *bfsChaos) outcome(m *sim.Machine, res *sim.ChaosResult) sim.ChaosTrial {
	t := sim.NewChaosTrial(res.Completed, res.Cycles, res.Report)
	if res.Completed && res.ReadErrors == 0 && len(m.Faults()) == 0 {
		t.Verified = sim.CountMismatches(res.Dist, b.want) == 0
	}
	return t
}

// trial runs one trial from scratch: the reference the forked path is
// pinned against.
func (b *bfsChaos) trial(ctx context.Context, kills, trial int) (sim.ChaosTrial, error) {
	m, err := b.d.BuildMachine(b.cfg.Side, nil)
	if err != nil {
		return sim.ChaosTrial{}, err
	}
	if err := m.AttachSchedule(b.schedule(m, kills, trial)); err != nil {
		return sim.ChaosTrial{}, err
	}
	res, err := sim.RunSSSPUnderFaultsCtx(ctx, m, b.g, 0, sim.SpreadWorkers(m, b.cfg.Workers), b.cfg.MaxCycles)
	if err != nil {
		return sim.ChaosTrial{}, err
	}
	return b.outcome(m, res), nil
}

// forked runs one kill count's trials off a shared warm prefix. The
// fault-free machine is built and the workload loaded once; trials are
// ordered by fork cycle (the cycle before each trial's first injected
// kill, clamped to the cycle budget), the prefix is advanced
// monotonically to each fork cycle, and an independent fork finishes
// every trial.
//
// Bit-identity with the from-scratch path follows from three facts: the
// prefix carries no schedule and no trial fires events at or before its
// fork cycle, so the prefix states agree; a fork is a deep copy, so
// stepping it from the fork cycle is the same computation from-scratch
// stepping performs; and per-trial seeds come from fault.TrialSeed, not
// shared state, so trial order and worker count do not matter.
func (b *bfsChaos) forked(ctx context.Context, kills, n, workers int, done func(sim.ChaosTrial)) ([]sim.ChaosTrial, error) {
	m0, err := b.d.BuildMachine(b.cfg.Side, nil)
	if err != nil {
		return nil, err
	}
	distA, err := sim.PrepareSSSP(m0, b.g, 0, sim.SpreadWorkers(m0, b.cfg.Workers))
	if err != nil {
		return nil, err
	}
	maxCycles := b.cfg.MaxCycles

	trials := make([]sim.ChaosTrial, n)

	// finish owns fm: it attaches the trial's schedule, runs to the
	// absolute cycle budget, and collects the result. Each call writes a
	// distinct trials slot, so concurrent finishes do not race.
	finish := func(fm *sim.Machine, sched *inject.Schedule, trial int) error {
		if err := fm.AttachSchedule(sched); err != nil {
			return err
		}
		if err := fm.RunToCycleCtx(ctx, maxCycles); err != nil {
			return err
		}
		var runErr error
		if !fm.AllHalted() {
			runErr = &sim.BudgetError{Cycles: maxCycles}
		}
		trials[trial] = b.outcome(fm, sim.CollectSSSP(fm, b.g, distA, runErr))
		done(trials[trial])
		return nil
	}

	scheds := make([]*inject.Schedule, n)
	forkAt := make([]int64, n)
	order := make([]int, n)
	for i := range scheds {
		scheds[i] = b.schedule(m0, kills, i)
		fc := int64(0)
		if evs := scheds[i].Events(); len(evs) > 0 {
			// The first event at cycle k fires during the step that makes
			// cycle == k, so the latest safe fork point is k-1 — clamped
			// to the budget, past which from-scratch runs never step.
			fc = evs[0].Cycle - 1
		}
		forkAt[i] = min(max(fc, 0), maxCycles)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return forkAt[order[a]] < forkAt[order[b]] })

	workers = parallel.Workers(workers, n)
	if workers <= 1 {
		for _, i := range order {
			if err := m0.RunToCycleCtx(ctx, forkAt[i]); err != nil {
				return nil, err
			}
			if err := finish(m0.Fork(), scheds[i], i); err != nil {
				return nil, err
			}
		}
		return trials, nil
	}

	// Producer/consumer: this goroutine advances the prefix and hands a
	// fresh fork to the pool per trial; the pool finishes trials
	// concurrently. The channel is unbuffered so at most one fork waits
	// unowned.
	type forkJob struct {
		trial int
		m     *sim.Machine
	}
	jobs := make(chan forkJob)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var poolErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if err := finish(jb.m, scheds[jb.trial], jb.trial); err != nil {
					mu.Lock()
					if poolErr == nil {
						poolErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	var prodErr error
	for _, i := range order {
		mu.Lock()
		failed := poolErr != nil
		mu.Unlock()
		if failed {
			break
		}
		if err := m0.RunToCycleCtx(ctx, forkAt[i]); err != nil {
			prodErr = err
			break
		}
		jobs <- forkJob{trial: i, m: m0.Fork()}
	}
	close(jobs)
	wg.Wait()
	if prodErr != nil {
		return nil, prodErr
	}
	if poolErr != nil {
		return nil, poolErr
	}
	return trials, nil
}
