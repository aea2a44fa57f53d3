package core

import (
	"fmt"

	"waferscale/internal/fault"
	"waferscale/internal/sim"
)

// System validation: the paper validated its architecture "by emulating
// a reduced-size multi-tile system on an FPGA platform (full waferscale
// system emulation was not possible due to scale)" and running graph
// workloads on it. BuildMachine does the equivalent here: it scales the
// design down to an emulable array and instantiates the functional
// simulator on it; ValidateSystem then runs BFS against a host oracle.

// BuildMachine instantiates the functional simulator for the design at
// a reduced array size (the paper's "reduced-size multi-tile system"),
// inheriting every per-tile parameter. side must divide into a valid
// configuration; 0 picks 4x4.
func (d *Design) BuildMachine(side int, fm *fault.Map) (*sim.Machine, error) {
	if side <= 0 {
		side = 4
	}
	cfg, err := d.Cfg.Square(side)
	if err != nil {
		return nil, fmt.Errorf("core: reduced system invalid: %w", err)
	}
	if fm == nil {
		fm = fault.NewMap(cfg.Grid())
	}
	return sim.NewMachine(cfg, fm)
}

// ValidationResult reports a system-validation run.
type ValidationResult struct {
	Workload     string
	Verified     bool
	Cycles       int64
	Instructions int64
	RemoteOps    int64
	Profile      sim.Profile
}

// ValidateSystem runs BFS on a reduced machine and checks the result
// against the host reference — the E1 experiment as a flow step.
func (d *Design) ValidateSystem(side, workers int, fm *fault.Map) (*ValidationResult, error) {
	m, err := d.BuildMachine(side, fm)
	if err != nil {
		return nil, err
	}
	g := sim.GridGraph(side*2, side*2)
	ws := sim.SpreadWorkers(m, workers)
	res, err := sim.RunBFS(m, g, 0, ws, 100_000_000)
	if err != nil {
		return nil, err
	}
	return &ValidationResult{
		Workload:     "bfs",
		Verified:     sim.CountMismatches(res.Dist, g.Unweighted().ReferenceSSSP(0)) == 0,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		RemoteOps:    res.RemoteOps,
		Profile:      m.CollectProfile(),
	}, nil
}
