package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"waferscale/internal/core"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
	"waferscale/internal/noc/analytical"
	"waferscale/internal/pdn"
	"waferscale/internal/workload"
)

// Run executes a normalized spec with the given host-worker budget and
// returns the kind-specific result value (a plain struct, marshaled to
// JSON by the server before caching). workers is the grant from the
// server's CPU budget — it is threaded into every fan-out knob of the
// underlying analysis, so co-scheduled jobs cannot oversubscribe the
// host. emit, which may be nil, receives progress events; it must be
// safe for concurrent use (Monte Carlo trial hooks fire from worker
// goroutines).
//
// Cancellation: ctx is threaded into the analysis drivers (see
// RunChaosCtx, Fig6SweepCtx, SolveCtx, Machine.RunCtx); on
// cancellation Run returns ctx.Err() and whatever partial results the
// drivers expose are discarded — a canceled job never caches.
func Run(ctx context.Context, sp *Spec, workers int, emit func(Event)) (any, error) {
	if emit == nil {
		emit = func(Event) {}
	}
	if workers < 1 {
		workers = 1
	}
	switch sp.Kind {
	case "droop":
		return runDroop(ctx, sp.Droop, workers, emit)
	case "nocmc":
		return runNoCMC(ctx, sp.NoCMC, workers, emit)
	case "chaos":
		return runChaos(ctx, sp.Chaos, workers, emit)
	case "throughput":
		return runThroughput(ctx, sp.Throughput, emit)
	case "dse":
		return runDSE(ctx, sp.DSE, workers, emit)
	case "pareto":
		return runPareto(ctx, sp.Pareto, workers, emit)
	case "report":
		return runReport(ctx, sp.Report, workers, emit)
	case "workload":
		return runWorkload(ctx, sp.Workload, emit)
	}
	return nil, fmt.Errorf("serve: unknown kind %q (spec not normalized?)", sp.Kind)
}

// DroopResult is the wire result of a droop job.
type DroopResult struct {
	MinVolt           float64   `json:"minVolt"`
	MinAtX            int       `json:"minAtX"`
	MinAtY            int       `json:"minAtY"`
	ResistiveLossW    float64   `json:"resistiveLossW"`
	Sweeps            int       `json:"sweeps"`
	ResidualV         float64   `json:"residualV"`
	TilesInRegulation int       `json:"tilesInRegulation"`
	Tiles             int       `json:"tiles"`
	CenterProfile     []float64 `json:"centerProfile"`
}

func runDroop(ctx context.Context, sp *DroopSpec, workers int, emit func(Event)) (any, error) {
	d := core.NewDesign()
	grid := geom.NewGrid(sp.Side, sp.Side)
	sol, err := pdn.SolveCtx(ctx, pdn.Config{
		Grid:         grid,
		EdgeVolts:    sp.EdgeVolts,
		TileCurrentA: d.TileCurrentA(),
		SheetOhm:     d.SheetOhm,
		Workers:      workers,
		Progress: func(sweeps int, residualV float64) {
			emit(Event{Stage: "sor", Done: int64(sweeps), Residual: residualV})
		},
	})
	if err != nil {
		return nil, err
	}
	min, at := sol.MinVolt()
	reg := pdn.CheckRegulation(sol, d.LDO, d.Cfg.PeakTilePowerW)
	return &DroopResult{
		MinVolt:           min,
		MinAtX:            at.X,
		MinAtY:            at.Y,
		ResistiveLossW:    sol.ResistiveLossW(),
		Sweeps:            sol.Sweeps,
		ResidualV:         sol.Residual,
		TilesInRegulation: reg.TilesInRegulation,
		Tiles:             grid.Size(),
		CenterProfile:     sol.Profile(sp.Side / 2),
	}, nil
}

// NoCMCResult is the wire result of a nocmc job; exactly one of the
// two point lists is populated, matching the requested granularity.
// Topology echoes the spec's canonical topology ("" = mesh).
type NoCMCResult struct {
	Points        []noc.Fig6Point        `json:"points,omitempty"`
	ChipletPoints []noc.ChipletFig6Point `json:"chipletPoints,omitempty"`
	Topology      string                 `json:"topology,omitempty"`
}

func runNoCMC(ctx context.Context, sp *NoCMCSpec, workers int, emit func(Event)) (any, error) {
	grid := core.NewDesign().Cfg.Grid()
	step := sp.MaxFaults / 10
	if step < 1 {
		step = 1
	}
	var counts []int
	for n := 1; n <= sp.MaxFaults; n += step {
		counts = append(counts, n)
	}
	opts := noc.Fig6Opts{
		Workers: workers,
		Progress: func(done, total int) {
			emit(Event{Stage: "trials", Done: int64(done), Total: int64(total)})
		},
	}
	if sp.Chiplet {
		pts, err := noc.ChipletFig6SweepCtx(ctx, grid, counts, sp.Trials, sp.Seed, opts)
		if err != nil {
			return nil, err
		}
		return &NoCMCResult{ChipletPoints: pts}, nil
	}
	// TopoFig6SweepCtx delegates the mesh ("") to the prefix-sum sweep,
	// so pre-topology specs keep producing bit-identical results.
	pts, err := noc.TopoFig6SweepCtx(ctx, sp.Topology, grid, counts, sp.Trials, sp.Seed, opts)
	if err != nil {
		return nil, err
	}
	return &NoCMCResult{Points: pts, Topology: sp.Topology}, nil
}

// ChaosResult is the wire result of a chaos job.
type ChaosResult struct {
	Points []core.ChaosPoint `json:"points"`
}

func runChaos(ctx context.Context, sp *ChaosSpec, workers int, emit func(Event)) (any, error) {
	d := core.NewDesign()
	cfg := core.ChaosConfig{
		Side:         sp.Side,
		Workers:      sp.Workers,
		Trials:       sp.Trials,
		Seed:         sp.Seed,
		Kills:        sp.Kills,
		KillWindow:   [2]int64{sp.KillFrom, sp.KillTo},
		MaxCycles:    sp.MaxCycles,
		GraphSide:    sp.GraphSide,
		TrialWorkers: workers,
		Progress: func(done, total int, cycles int64) {
			emit(Event{Stage: "trials", Done: int64(done), Total: int64(total), Cycles: cycles})
		},
	}
	pts, err := d.RunChaosCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Points: pts}, nil
}

// ThroughputResult is the wire result of a throughput job. Model
// labels the timing backend that produced the points; clients must
// treat "analytical" results as approximate.
type ThroughputResult struct {
	Points     []noc.ThroughputPoint `json:"points"`
	Saturation float64               `json:"saturationBound"`
	Model      string                `json:"model"`
	// Topology echoes the spec's canonical topology ("" = mesh);
	// Saturation is that topology's ideal bound.
	Topology string `json:"topology,omitempty"`
}

func runThroughput(ctx context.Context, sp *ThroughputSpec, emit func(Event)) (any, error) {
	grid := geom.NewGrid(sp.Side, sp.Side)
	fm := fault.Random(grid, sp.Faults, rand.New(rand.NewSource(sp.Seed)))
	res := &ThroughputResult{
		Saturation: noc.IdealSaturation(sp.Topology, grid),
		Model:      sp.Model,
		Topology:   sp.Topology,
	}
	var model noc.LatencyModel
	if sp.Model == noc.ModelNameAnalytical {
		am, err := analytical.NewForTopology(sp.Topology, fm)
		if err != nil {
			return nil, err
		}
		model = am
	} else {
		cfg := noc.DefaultThroughputConfig()
		cfg.Topology = sp.Topology
		model = &noc.CycleModel{FM: fm, Cfg: cfg}
	}
	// Rate points are evaluated one at a time, so progress streams per
	// rate and cancellation lands between rates. A point depends only on
	// its rate (the cycle backend builds its own Sim from the same seed
	// for each), so the points match the batched curve exactly.
	for i, rate := range sp.Rates {
		pts, err := model.ThroughputCurve(ctx, []float64{rate})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pts[0])
		emit(Event{Stage: "rates", Done: int64(i + 1), Total: int64(len(sp.Rates))})
	}
	return res, nil
}

// DSEResult is the wire result of a dse job. Model labels the
// evaluation backend of every point.
type DSEResult struct {
	ArrayPoints []core.ArrayPoint `json:"arrayPoints"`
	Model       string            `json:"model"`
	// Topology echoes the spec's canonical topology ("" = mesh).
	Topology string `json:"topology,omitempty"`
}

func runDSE(ctx context.Context, sp *DSESpec, workers int, emit func(Event)) (any, error) {
	d := core.NewDesign()
	d.Workers = workers
	pts, err := d.SweepArraySizeCtx(ctx, sp.Sides, core.SweepOpts{
		Model:    core.EvalModel(sp.Model),
		Topology: sp.Topology,
		Progress: func(done, total int) {
			emit(Event{Stage: "points", Done: int64(done), Total: int64(total)})
		},
	})
	if err != nil {
		return nil, err
	}
	return &DSEResult{ArrayPoints: pts, Model: sp.Model, Topology: sp.Topology}, nil
}

// ParetoResult is the wire result of a pareto job. Model labels the
// backend behind All/Frontier ("cycle" for exact and two-tier runs,
// "analytical" for screen runs); Mode echoes the spec. Two-tier runs
// additionally carry the approximate screen of the full grid, the
// survivor accounting and the screen-vs-verified error report.
type ParetoResult struct {
	All      []core.DesignPoint `json:"all"`
	Frontier []core.DesignPoint `json:"frontier"`
	Model    string             `json:"model"`
	Mode     string             `json:"mode"`

	Screened    []core.DesignPoint     `json:"screened,omitempty"`
	Survivors   int                    `json:"survivors,omitempty"`
	ScreenedOut int                    `json:"screenedOut,omitempty"`
	ModelError  *core.ModelErrorReport `json:"modelError,omitempty"`
	// Topology echoes the spec's canonical topology ("" = mesh).
	Topology string `json:"topology,omitempty"`
}

func runPareto(ctx context.Context, sp *ParetoSpec, workers int, emit func(Event)) (any, error) {
	d := core.NewDesign()
	d.Workers = workers
	opts := core.ParetoOpts{
		Topology: sp.Topology,
		Progress: func(stage string, done, total int) {
			emit(Event{Stage: stage, Done: int64(done), Total: int64(total)})
		},
	}
	switch sp.Mode {
	case "screen":
		opts.Model = core.ModelAnalytical
	case "twotier":
		opts.TwoTier = true
		opts.TopK = sp.TopK
		opts.BandPct = sp.BandPct
	}
	run, err := d.ExploreParetoCtx(ctx, core.ParetoSpace{
		Sides:   sp.Sides,
		EdgeV:   sp.EdgeV,
		Pillars: sp.Pillars,
	}, opts)
	if err != nil {
		return nil, err
	}
	return &ParetoResult{
		All:         run.All,
		Frontier:    run.Frontier,
		Model:       run.Model,
		Mode:        sp.Mode,
		Screened:    run.Screened,
		Survivors:   run.Survivors,
		ScreenedOut: run.ScreenedOut,
		ModelError:  run.ModelError,
		Topology:    sp.Topology,
	}, nil
}

// WorkloadResult is the wire result of a workload job: the per-operator
// report plus the differential verdict against the host reference.
// Topology and Placement echo the spec's canonical fields ("" = mesh /
// rowmajor).
type WorkloadResult struct {
	Report     *workload.WorkloadReport `json:"report"`
	Verified   bool                     `json:"verified"`
	Mismatched []string                 `json:"mismatched,omitempty"`
	Topology   string                   `json:"topology,omitempty"`
	Placement  string                   `json:"placement,omitempty"`
}

func runWorkload(ctx context.Context, sp *WorkloadSpec, emit func(Event)) (any, error) {
	g, err := workload.Builtin(sp.Graph, sp.Tokens, sp.Dim, sp.Experts)
	if err != nil {
		return nil, err
	}
	m, err := workload.BuildMachine(sp.Side, sp.Topology)
	if err != nil {
		return nil, err
	}
	m.Progress = func(c int64) { emit(Event{Stage: "cycles", Cycles: c}) }
	outputs, rep, err := workload.RunCtx(ctx, m, g, workload.Options{Placement: sp.Placement})
	if err != nil {
		return nil, err
	}
	emit(Event{Stage: "ops", Done: int64(len(rep.Ops)), Total: int64(len(rep.Ops)), Cycles: rep.TotalCycles})
	res := &WorkloadResult{Report: rep, Topology: sp.Topology, Placement: sp.Placement}
	if rep.Completed {
		want, err := workload.Reference(g)
		if err != nil {
			return nil, err
		}
		res.Mismatched = workload.CompareOutputs(outputs, want)
		res.Verified = len(res.Mismatched) == 0
	}
	return res, nil
}

// ReportResult is the wire result of a report job: the rendered
// engineering report.
type ReportResult struct {
	Text string `json:"text"`
}

func runReport(ctx context.Context, sp *ReportSpec, workers int, emit func(Event)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := core.NewDesign()
	d.Workers = workers
	faults := sp.Faults
	if faults < 0 { // normalized -1 means "no faults"
		faults = 0
	}
	fm := fault.Random(d.Cfg.Grid(), faults, rand.New(rand.NewSource(sp.Seed)))
	var buf bytes.Buffer
	progress := func(done, total int) {
		emit(Event{Stage: "trials", Done: int64(done), Total: int64(total)})
	}
	if err := d.WriteFullReport(ctx, &buf, fm, sp.Trials, sp.Seed, progress); err != nil {
		return nil, err
	}
	emit(Event{Stage: "sections", Done: 1, Total: 1})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &ReportResult{Text: buf.String()}, nil
}
