package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
	"waferscale/internal/noc/analytical"
	"waferscale/internal/parallel"
	"waferscale/internal/pdn"
)

// Two-tier design-space exploration: the cycle-accurate flow is the
// oracle, but it prices every candidate at a full SOR droop solve plus
// packet-simulator probes. The analytical fast path (pdn.EstimateDroop,
// noc/analytical) answers the same questions in closed form, ~100x
// cheaper, so a hierarchical run screens the whole space approximately,
// keeps only the candidates that could plausibly reach the frontier,
// and re-evaluates just those with the exact models. Approximate and
// exact results are never conflated: every DesignPoint carries the
// backend in Model, and the serve layer keys them as different specs.

// EvalModel selects the evaluation backend for a sweep.
type EvalModel string

const (
	// ModelCycle is the exact tier: SOR droop solves and cycle-accurate
	// NoC probes.
	ModelCycle EvalModel = noc.ModelNameCycle
	// ModelAnalytical is the fast tier: spectral droop estimates and the
	// closed-form NoC timing model.
	ModelAnalytical EvalModel = noc.ModelNameAnalytical
)

func (m EvalModel) normalized() (EvalModel, error) {
	switch m {
	case "", ModelCycle:
		return ModelCycle, nil
	case ModelAnalytical:
		return ModelAnalytical, nil
	}
	return "", fmt.Errorf("core: unknown eval model %q (want %q or %q)",
		string(m), noc.ModelNameCycle, noc.ModelNameAnalytical)
}

// probeLoadFraction is the fraction of the topology's closed-form
// saturation bound (noc.IdealSaturation) the NoC latency probe loads
// the network at. It is model-independent (so the two tiers answer the
// same question) and sits below every topology's measured plateau
// (~0.53-0.74 of the bound: the analytical model's per-topology
// allocation efficiencies, analytical.DefaultTopoAllocEfficiency),
// keeping the probe in the stable region of the latency-throughput
// curve.
const probeLoadFraction = 0.4

// nocProbe is what every sweep asks of the NoC at a design point:
// saturation throughput and average latency at a fixed moderate load.
type nocProbe struct {
	satRate float64
	latency float64
}

// probeNoC probes the topology over fm with the model's backend. The
// analytical tier scales the closed-form capacity by the exact fraction
// of fault-free paths (1 on a fault-free map); the cycle tier measures
// the delivered plateau.
func probeNoC(ctx context.Context, fm *fault.Map, model EvalModel, topology string) (nocProbe, error) {
	var lm noc.LatencyModel
	reach := 1.0
	if model == ModelAnalytical {
		m, err := analytical.NewForTopology(topology, fm)
		if err != nil {
			return nocProbe{}, err
		}
		lm, reach = m, m.ReachableFraction()
	} else {
		cfg := noc.ProbeThroughputConfig()
		cfg.Topology = topology
		lm = &noc.CycleModel{FM: fm, Cfg: cfg}
	}
	rate := probeLoadFraction * noc.IdealSaturation(topology, fm.Grid())
	pts, err := lm.ThroughputCurve(ctx, []float64{rate})
	if err != nil {
		return nocProbe{}, err
	}
	return nocProbe{satRate: lm.SaturationRate() * reach, latency: pts[0].AvgLatency}, nil
}

// droopAt solves cfg's edge-fed droop map with the model's backend and
// returns its minimum (center) voltage and whether the LDO regulates at
// every tile. Out-of-range tiles are exactly those whose input drops
// below MinOutV+DropoutV, so the analytical tier checks the closed-form
// minimum against that floor; the cycle tier runs the SOR solve and
// counts them. The solve is single-threaded: every sweep parallelizes
// across points, not inside them.
func (d *Design) droopAt(cfg arch.Config, model EvalModel) (minV float64, regOK bool, err error) {
	pc := pdn.Config{
		Grid:         cfg.Grid(),
		EdgeVolts:    cfg.EdgeSupplyVolts,
		TileCurrentA: cfg.PeakTilePowerW / cfg.FastCornerVolts,
		SheetOhm:     d.SheetOhm,
		Workers:      1,
	}
	if model == ModelAnalytical {
		est, err := pdn.EstimateDroop(pc)
		if err != nil {
			return 0, false, err
		}
		return est.MinVolt, est.MinVolt >= d.LDO.MinOutV+d.LDO.DropoutV, nil
	}
	sol, err := pdn.Solve(pc)
	if err != nil {
		return 0, false, err
	}
	minV, _ = sol.MinVolt()
	return minV, pdn.CheckRegulation(sol, d.LDO, cfg.PeakTilePowerW).TilesOutOfRange == 0, nil
}

// Defaults for the two-tier survivor selection.
const (
	// DefaultTopK candidates per objective are kept regardless of
	// domination, as insurance against model error in the ordering.
	DefaultTopK = 2
	// DefaultBandPct is the feasibility safety band around the LDO
	// floor, in percent of the floor voltage. The spectral droop
	// estimate agrees with SOR to ~1e-4 V, so the default 5% band
	// (~60 mV) is three orders of magnitude wider than the model error.
	DefaultBandPct = 5.0
)

// ParetoOpts configures ExploreParetoCtx.
type ParetoOpts struct {
	// Model picks the backend for a single-tier run ("" = cycle).
	// Ignored when TwoTier is set.
	Model EvalModel
	// Topology names the NoC link graph the probes characterize
	// ("" = mesh); see noc.NewTopology. Both tiers use the same
	// topology, so screen and verify answer the same question.
	Topology string
	// TwoTier screens the full space with the analytical model and
	// verifies only the surviving candidates with the cycle backend.
	TwoTier bool
	// TopK is the per-objective insurance count (0 = DefaultTopK).
	TopK int
	// BandPct is the feasibility band in percent of the LDO floor
	// voltage (0 = DefaultBandPct).
	BandPct float64
	// Progress, when set, is called as evaluation advances: once with
	// done=0 when a stage starts, then after every completed point.
	// Stages are "evaluate" (single-tier) or "screen"/"verify"
	// (two-tier). It may be called from multiple goroutines but calls
	// are serialized and done is strictly increasing within a stage.
	Progress func(stage string, done, total int)
}

// PointError is the per-survivor screen-vs-verified comparison.
type PointError struct {
	ArraySide     int
	EdgeVolts     float64
	PillarsPerPad int

	CenterVoltPct float64 // relative error, percent
	NoCSatPct     float64
	NoCLatencyPct float64
	FeasibleMatch bool
}

// ModelErrorReport quantifies how well the analytical screen tracked
// the cycle-accurate verdicts over the verified survivors.
type ModelErrorReport struct {
	Points int

	CenterVoltMeanPct float64
	CenterVoltMaxPct  float64
	NoCSatMeanPct     float64
	NoCSatMaxPct      float64
	NoCLatencyMeanPct float64
	NoCLatencyMaxPct  float64

	// Spearman rank correlations of the screen ordering against the
	// verified ordering (1 for fewer than two points).
	CenterVoltRankCorr float64
	NoCLatencyRankCorr float64

	FeasibilityMatches int
	PerPoint           []PointError
}

// ParetoRun is the result of ExploreParetoCtx.
type ParetoRun struct {
	// Model labels the backend the All/Frontier points were evaluated
	// with ("cycle" for two-tier runs: the frontier is always verified).
	Model string
	// Topology is the normalized NoC topology the probes ran on.
	Topology string
	TwoTier  bool

	// All and Frontier are the feasible points and the Pareto-optimal
	// subset, sorted by throughput. For two-tier runs All covers only
	// the verified survivors; the frontier is provably the same as an
	// exhaustive run's as long as the screen's feasibility error stays
	// inside the band.
	All      []DesignPoint
	Frontier []DesignPoint

	// Screened holds the analytical evaluation of the full grid
	// (two-tier only), in enumeration order, including infeasible
	// points. Every entry carries Model "analytical".
	Screened []DesignPoint

	// Survivors and ScreenedOut count the second-tier workload saved.
	Survivors   int
	ScreenedOut int

	// ModelError compares screen vs verified values over the survivors
	// (two-tier only).
	ModelError *ModelErrorReport
}

type paretoCombo struct {
	side    int
	edgeV   float64
	pillars int
}

func (c paretoCombo) String() string {
	return fmt.Sprintf("point (%d,%.1fV,%dp)", c.side, c.edgeV, c.pillars)
}

func enumerateSpace(space ParetoSpace) []paretoCombo {
	var combos []paretoCombo
	for _, side := range space.Sides {
		for _, ev := range space.EdgeV {
			for _, pp := range space.Pillars {
				combos = append(combos, paretoCombo{side, ev, pp})
			}
		}
	}
	return combos
}

// twoTier is the screen-then-verify pipeline every explorer shares. An
// explorer supplies how to price a batch of candidates and which
// screened points deserve verification; the engine runs the stages,
// reports progress under the stage names "evaluate" (single-tier),
// "screen" and "verify", and times each stage.
type twoTier[C, P any] struct {
	// eval prices cs with one backend, in candidate order, calling tick
	// (if non-nil) after every completed point.
	eval func(ctx context.Context, cs []C, model EvalModel, tick func()) ([]P, error)
	// rule returns the screened indices its band logic keeps and the
	// pool the top-K insurance draws from.
	rule func(screened []P) (keep, pool []int)
	// objectives order points best-first, one per objective. The topK
	// (0 = DefaultTopK) best of the pool on each objective always
	// survive, as insurance against model error in the ordering.
	objectives []func(a, b P) bool
	topK       int
	progress   func(stage string, done, total int)
}

// tiers is the outcome of a two-tier run.
type tiers[P any] struct {
	screened, verified           []P
	survivors                    []int // indices into screened, ascending
	screenElapsed, verifyElapsed time.Duration
}

// stage evaluates cs with one backend under a progress stage name.
func (t twoTier[C, P]) stage(ctx context.Context, name string, cs []C, model EvalModel) ([]P, time.Duration, error) {
	start := time.Now()
	pts, err := t.eval(ctx, cs, model, progressTicker(t.progress, name, len(cs)))
	return pts, time.Since(start), err
}

// run screens every candidate with the analytical tier and verifies
// the survivors with the cycle tier.
func (t twoTier[C, P]) run(ctx context.Context, cs []C) (*tiers[P], error) {
	screened, screenElapsed, err := t.stage(ctx, "screen", cs, ModelAnalytical)
	if err != nil {
		return nil, err
	}
	surv := t.survivors(screened)
	verifyCs := make([]C, len(surv))
	for i, idx := range surv {
		verifyCs[i] = cs[idx]
	}
	verified, verifyElapsed, err := t.stage(ctx, "verify", verifyCs, ModelCycle)
	if err != nil {
		return nil, err
	}
	return &tiers[P]{screened, verified, surv, screenElapsed, verifyElapsed}, nil
}

// survivors applies the rule plus the top-K insurance slice per
// objective and returns the kept indices in ascending order.
func (t twoTier[C, P]) survivors(screened []P) []int {
	keep, pool := t.rule(screened)
	kept := make([]bool, len(screened))
	for _, i := range keep {
		kept[i] = true
	}
	topK := t.topK
	if topK <= 0 {
		topK = DefaultTopK
	}
	for _, better := range t.objectives {
		order := append([]int(nil), pool...)
		sort.SliceStable(order, func(x, y int) bool { return better(screened[order[x]], screened[order[y]]) })
		for _, i := range order[:min(topK, len(order))] {
			kept[i] = true
		}
	}
	var out []int
	for i, k := range kept {
		if k {
			out = append(out, i)
		}
	}
	return out
}

// progressTicker serializes a Progress callback into a per-completion
// tick. Returns nil when progress is nil.
func progressTicker(progress func(stage string, done, total int), stage string, total int) func() {
	if progress == nil {
		return nil
	}
	var mu sync.Mutex
	done := 0
	progress(stage, 0, total)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		progress(stage, done, total)
	}
}

// evalAll prices every candidate on the shared bounded pool and returns
// the points in candidate order. It calls tick (if non-nil) after each
// completed point and names the failing candidate in an error.
func evalAll[C fmt.Stringer, P any](ctx context.Context, cs []C, workers int, tick func(), eval func(C) (P, error)) ([]P, error) {
	return parallel.Map(ctx, len(cs), workers, func(i int) (P, error) {
		p, err := eval(cs[i])
		if err != nil {
			return p, fmt.Errorf("core: %v: %w", cs[i], err)
		}
		if tick != nil {
			tick()
		}
		return p, nil
	})
}

// paretoFront returns the points no other point dominates, sorted by
// less.
func paretoFront[P any](pts []P, dominates, less func(a, b P) bool) []P {
	var front []P
	for _, p := range pts {
		if !slices.ContainsFunc(pts, func(q P) bool { return dominates(q, p) }) {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return less(front[i], front[j]) })
	return front
}

// relPct is a screened value's error against the verified one, in
// percent of the verified value, or in percent of 1 when that is zero.
func relPct(model, exact float64) float64 {
	if exact == 0 {
		return 100 * math.Abs(model)
	}
	return 100 * math.Abs(model-exact) / math.Abs(exact)
}

// evalCombos evaluates the combos with the given backend on the shared
// pool. The NoC probe depends only on the array side, so probes run
// once per distinct side, then the per-combo droop evaluations fan out.
func (d *Design) evalCombos(ctx context.Context, combos []paretoCombo, model EvalModel, topology string, tick func()) ([]DesignPoint, error) {
	seen := map[int]bool{}
	var sides []int
	for _, c := range combos {
		if !seen[c.side] {
			seen[c.side] = true
			sides = append(sides, c.side)
		}
	}
	sort.Ints(sides)
	probeVals, err := parallel.Map(ctx, len(sides), d.Workers, func(i int) (nocProbe, error) {
		p, err := probeNoC(ctx, fault.NewMap(geom.NewGrid(sides[i], sides[i])), model, topology)
		if err != nil {
			return nocProbe{}, fmt.Errorf("core: noc probe side %d (%s): %w", sides[i], model, err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	probes := make(map[int]nocProbe, len(sides))
	for i, s := range sides {
		probes[s] = probeVals[i]
	}
	return evalAll(ctx, combos, d.Workers, tick, func(c paretoCombo) (DesignPoint, error) {
		return d.evaluatePoint(c.side, c.edgeV, c.pillars, model, probes[c.side])
	})
}

// ExploreParetoCtx explores the Pareto grid and returns all feasible
// points plus the Pareto-optimal subset (both sorted by throughput).
// With opts.TwoTier it screens the full space with the analytical fast
// path and verifies only the survivors with the cycle backend;
// otherwise it evaluates every point with opts.Model (the zero value is
// the cycle-accurate backend). Candidates are evaluated on the shared
// bounded pool (d.Workers goroutines, 0 = GOMAXPROCS); each point's
// droop solve runs single-threaded so the sweep parallelizes across
// candidates.
func (d *Design) ExploreParetoCtx(ctx context.Context, space ParetoSpace, opts ParetoOpts) (*ParetoRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	combos := enumerateSpace(space)
	if len(combos) == 0 {
		return nil, fmt.Errorf("core: empty pareto space")
	}
	topology, err := noc.NormalizeTopology(opts.Topology)
	if err != nil {
		return nil, err
	}
	tt := twoTier[paretoCombo, DesignPoint]{
		eval: func(ctx context.Context, cs []paretoCombo, model EvalModel, tick func()) ([]DesignPoint, error) {
			return d.evalCombos(ctx, cs, model, topology, tick)
		},
		rule: d.paretoRule(opts.BandPct),
		objectives: []func(a, b DesignPoint) bool{
			func(a, b DesignPoint) bool { return a.ThroughputTOPS > b.ThroughputTOPS },
			func(a, b DesignPoint) bool { return a.EdgePowerW < b.EdgePowerW },
			func(a, b DesignPoint) bool { return a.ExpectedBad < b.ExpectedBad },
		},
		topK:     opts.TopK,
		progress: opts.Progress,
	}
	run := &ParetoRun{Topology: topology, TwoTier: opts.TwoTier}
	var pts []DesignPoint
	if opts.TwoTier {
		r, err := tt.run(ctx, combos)
		if err != nil {
			return nil, err
		}
		pts = r.verified
		run.Model = string(ModelCycle)
		run.Screened = r.screened
		run.Survivors = len(r.survivors)
		run.ScreenedOut = len(combos) - len(r.survivors)
		run.ModelError = buildErrorReport(r.screened, r.survivors, r.verified)
	} else {
		model, err := opts.Model.normalized()
		if err != nil {
			return nil, err
		}
		if pts, _, err = tt.stage(ctx, "evaluate", combos, model); err != nil {
			return nil, err
		}
		run.Model = string(model)
	}
	for _, p := range pts {
		if p.Feasible {
			run.All = append(run.All, p)
		}
	}
	byThroughput := func(a, b DesignPoint) bool { return a.ThroughputTOPS < b.ThroughputTOPS }
	run.Frontier = paretoFront(run.All, dominates, byThroughput)
	sort.Slice(run.All, func(i, j int) bool { return byThroughput(run.All[i], run.All[j]) })
	return run, nil
}

// paretoRule keeps every screened point whose feasibility is plausible
// (center voltage within the band of the LDO floor or above) and that
// no confidently feasible point (margin above the band) dominates.
// Objectives are exact arithmetic in both tiers, so domination
// transfers: a point dominated by a confident survivor cannot reach the
// verified frontier. The plausible points are the insurance pool.
func (d *Design) paretoRule(bandPct float64) func([]DesignPoint) (keep, pool []int) {
	if bandPct <= 0 {
		bandPct = DefaultBandPct
	}
	floor := d.LDO.MinOutV + d.LDO.DropoutV
	bandV := floor * bandPct / 100
	return func(screened []DesignPoint) (keep, pool []int) {
		var confident []int
		for i, p := range screened {
			// The edge-voltage bound is exact arithmetic, identical in
			// both tiers: no band needed.
			if !d.edgeVoltOK(p.EdgeVolts) {
				continue
			}
			if p.CenterVolt >= floor+bandV {
				confident = append(confident, i)
			}
			if p.CenterVolt >= floor-bandV {
				pool = append(pool, i)
			}
		}
		for _, i := range pool {
			if !slices.ContainsFunc(confident, func(j int) bool { return dominates(screened[j], screened[i]) }) {
				keep = append(keep, i)
			}
		}
		return keep, pool
	}
}

func buildErrorReport(screened []DesignPoint, surv []int, verified []DesignPoint) *ModelErrorReport {
	rep := &ModelErrorReport{Points: len(surv)}
	if len(surv) == 0 {
		return rep
	}
	var screenVolt, exactVolt, screenLat, exactLat []float64
	var voltSum, satSum, latSum float64
	for k, idx := range surv {
		s, v := screened[idx], verified[k]
		pe := PointError{
			ArraySide:     v.ArraySide,
			EdgeVolts:     v.EdgeVolts,
			PillarsPerPad: v.PillarsPerPad,
			CenterVoltPct: relPct(s.CenterVolt, v.CenterVolt),
			NoCSatPct:     relPct(s.NoCSatRate, v.NoCSatRate),
			NoCLatencyPct: relPct(s.NoCLatency, v.NoCLatency),
			FeasibleMatch: s.Feasible == v.Feasible,
		}
		if pe.FeasibleMatch {
			rep.FeasibilityMatches++
		}
		rep.PerPoint = append(rep.PerPoint, pe)
		voltSum += pe.CenterVoltPct
		satSum += pe.NoCSatPct
		latSum += pe.NoCLatencyPct
		rep.CenterVoltMaxPct = math.Max(rep.CenterVoltMaxPct, pe.CenterVoltPct)
		rep.NoCSatMaxPct = math.Max(rep.NoCSatMaxPct, pe.NoCSatPct)
		rep.NoCLatencyMaxPct = math.Max(rep.NoCLatencyMaxPct, pe.NoCLatencyPct)
		screenVolt = append(screenVolt, s.CenterVolt)
		exactVolt = append(exactVolt, v.CenterVolt)
		screenLat = append(screenLat, s.NoCLatency)
		exactLat = append(exactLat, v.NoCLatency)
	}
	n := float64(len(surv))
	rep.CenterVoltMeanPct = voltSum / n
	rep.NoCSatMeanPct = satSum / n
	rep.NoCLatencyMeanPct = latSum / n
	rep.CenterVoltRankCorr = spearmanRank(screenVolt, exactVolt)
	rep.NoCLatencyRankCorr = spearmanRank(screenLat, exactLat)
	return rep
}

// spearmanRank computes the Spearman rank correlation of two
// equal-length samples (ties broken by index; 1 for fewer than two
// points).
func spearmanRank(a, b []float64) float64 {
	if len(a) < 2 {
		return 1
	}
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
		r := make([]float64, len(v))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}
