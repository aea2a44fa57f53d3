package workload

import (
	"context"
	"fmt"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/inject"
	"waferscale/internal/sim"
)

// Operator-graph chaos: the core.RunChaos pattern pointed at a task
// graph instead of BFS. Each trial builds a fresh machine, arms a
// seeded kill schedule, and runs the graph; the survival curve reports
// how often an LLM-shaped pipeline still completes — and still matches
// the host reference bit for bit — as tiles die under it mid-operator.

// BuildMachine constructs a fault-free side x side machine on the named
// topology with every per-tile parameter inherited from the paper's
// configuration (the same reduction core.Design.BuildMachine performs,
// plus the topology axis).
func BuildMachine(side int, topology string) (*sim.Machine, error) {
	if side <= 0 {
		side = 4
	}
	cfg, err := arch.DefaultConfig().Square(side)
	if err != nil {
		return nil, fmt.Errorf("workload: reduced system invalid: %w", err)
	}
	return sim.NewMachineTopology(cfg, fault.NewMap(cfg.Grid()), topology)
}

// ChaosConfig parametrizes a per-graph survival sweep.
type ChaosConfig struct {
	Side       int      // machine array side
	Topology   string   // NoC topology ("" = mesh)
	Placement  string   // placement policy ("" = rowmajor)
	Trials     int      // runs per kill count
	Seed       int64    // master seed; fault.TrialSeed decorrelates trials
	Kills      []int    // tile kill counts to sweep
	KillWindow [2]int64 // cycle window kills are drawn from
	// WorkersPerOp / OpBudget mirror Options.
	WorkersPerOp int
	OpBudget     int64
	// TrialWorkers bounds the host pool running trials (0 = GOMAXPROCS);
	// each trial machine steps serially. A wall-clock knob: results are
	// bit-identical at any setting.
	TrialWorkers int
	// Progress, when non-nil, is called after each finished trial with
	// cumulative counts. Concurrency-safe required.
	Progress func(done, total int)
}

// DefaultChaosConfig mirrors core.DefaultChaosConfig at workload scale.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Side:       4,
		Trials:     8,
		Seed:       2021,
		Kills:      []int{0, 1, 2, 4},
		KillWindow: [2]int64{200, 4000},
	}
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if err := c.sweep().Validate(c.Side); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

func (c ChaosConfig) sweep() sim.ChaosSweep {
	s := sim.ChaosSweep{
		Trials:       c.Trials,
		Kills:        c.Kills,
		TrialWorkers: c.TrialWorkers,
	}
	if c.Progress != nil {
		s.Progress = func(done, total int, _ int64) { c.Progress(done, total) }
	}
	return s
}

// ChaosPoint is one row of the survival curve: Completed counts trials
// whose every operator ran to quiescence, Verified those whose outputs
// matched the host reference.
type ChaosPoint = sim.ChaosPoint

// RunChaos executes the survival sweep for g.
func RunChaos(cfg ChaosConfig, g *Graph) ([]ChaosPoint, error) {
	return RunChaosCtx(context.Background(), cfg, g)
}

// RunChaosCtx is RunChaos with cancellation. Trials are independent
// machines over a bounded pool; per-trial seeds come from
// fault.TrialSeed, so the outcome is deterministic at any worker count.
func RunChaosCtx(ctx context.Context, cfg ChaosConfig, g *Graph) ([]ChaosPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	want, err := Reference(g)
	if err != nil {
		return nil, err
	}
	return sim.RunChaosSweep(ctx, cfg.sweep(), func(ctx context.Context, kills, trial int) (sim.ChaosTrial, error) {
		return runChaosTrial(ctx, cfg, g, want, kills, trial)
	})
}

func runChaosTrial(ctx context.Context, cfg ChaosConfig, g *Graph, want map[string][]int32, kills, trial int) (sim.ChaosTrial, error) {
	m, err := BuildMachine(cfg.Side, cfg.Topology)
	if err != nil {
		return sim.ChaosTrial{}, err
	}
	sched := inject.Random(m.Cfg.Grid(), kills, cfg.KillWindow, fault.TrialSeed(cfg.Seed, kills, trial), nil)
	if err := m.AttachSchedule(sched); err != nil {
		return sim.ChaosTrial{}, err
	}
	outputs, rep, err := RunCtx(ctx, m, g, Options{
		Placement:    cfg.Placement,
		WorkersPerOp: cfg.WorkersPerOp,
		OpBudget:     cfg.OpBudget,
	})
	if err != nil {
		return sim.ChaosTrial{}, err
	}
	t := sim.NewChaosTrial(rep.Completed, rep.TotalCycles, rep.Degradation)
	if rep.Completed {
		t.Verified = len(CompareOutputs(outputs, want)) == 0
	}
	return t, nil
}
