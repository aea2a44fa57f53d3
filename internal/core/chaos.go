package core

import (
	"context"
	"fmt"

	"waferscale/internal/fault"
	"waferscale/internal/inject"
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

	// Fork is ignored; kept only because bench/ sets it; ROADMAP item
	// 1's benchmark revision deletes it.
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
	want := g.ReferenceSSSP(0)
	return sim.RunChaosSweep(ctx, cfg.sweep(), func(ctx context.Context, kills, trial int) (sim.ChaosTrial, error) {
		m, err := d.BuildMachine(cfg.Side, nil)
		if err != nil {
			return sim.ChaosTrial{}, err
		}
		sched := inject.Random(m.Cfg.Grid(), kills, cfg.KillWindow, fault.TrialSeed(cfg.Seed, kills, trial), nil)
		if err := m.AttachSchedule(sched); err != nil {
			return sim.ChaosTrial{}, err
		}
		res, err := sim.RunSSSPUnderFaultsCtx(ctx, m, g, 0, sim.SpreadWorkers(m, cfg.Workers), cfg.MaxCycles)
		if err != nil {
			return sim.ChaosTrial{}, err
		}
		// A trial verifies only when the machine quiesced with every
		// distance readable and no core faulted.
		t := sim.NewChaosTrial(res.Completed, res.Cycles, res.Report)
		if res.Completed && res.ReadErrors == 0 && len(m.Faults()) == 0 {
			t.Verified = sim.CountMismatches(res.Dist, want) == 0
		}
		return t, nil
	})
}
