package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// Topology x fault-map exploration: the DAC'21 prototype froze the
// dual-DoR mesh in silicon; with topology now a first-class axis
// (noc.Topology) the natural question is which link graph survives
// which fault population best. The candidate space — topologies crossed
// with random fault maps — is priced per point by a saturation and a
// loaded-latency probe, so the same two-tier trick as ExploreParetoCtx
// applies: screen every candidate with the closed-form analytical
// model, cycle-verify only the plausible frontier.

// TopoSweepSpace enumerates the candidate (topology, fault map) grid.
type TopoSweepSpace struct {
	// Side is the square array side (vertical needs it even).
	Side int
	// Topologies to sweep; empty means every shipped topology.
	Topologies []string
	// FaultCounts are the fault populations; each nonzero count gets
	// Trials random maps (count 0 contributes a single fault-free map).
	FaultCounts []int
	// Trials is the number of random maps per nonzero fault count;
	// 0 means 1.
	Trials int
	// Seed derives the per-map seeds (fault.TrialSeed).
	Seed int64
}

// TopoSweepOpts configures ExploreTopologiesCtx.
type TopoSweepOpts struct {
	// TwoTier screens with the analytical model and verifies only
	// the surviving candidates with the cycle engine.
	TwoTier bool
	// Model picks the backend for a single-tier run ("" = cycle).
	// Ignored when TwoTier is set.
	Model EvalModel
	// Workers bounds the evaluation pool (0 = GOMAXPROCS).
	Workers int
	// Progress mirrors ParetoOpts.Progress with stages "evaluate"
	// (single-tier) or "screen"/"verify" (two-tier).
	Progress func(stage string, done, total int)
}

// DefaultTopoBandPct is the topology sweep's screen-confidence band, in
// percent, applied to both objectives during survivor selection.
// Unlike the Pareto droop band, both objectives here are modeled, so
// the band must cover the analytical model's relative error on each.
// The analytical model's delivered-saturation error is
// within ~10% and its loaded-latency error within ~25% of the cycle
// engine (accuracy suite tolerances); 15% on both objectives, applied
// to each side of a comparison, screens out only candidates beaten by
// well over the combined error budget.
const DefaultTopoBandPct = 15.0

// TopoPoint is one evaluated (topology, fault map) candidate.
type TopoPoint struct {
	Topology string `json:"topology"`
	Faults   int    `json:"faults"`
	Trial    int    `json:"trial"`
	// Model labels the backend ("cycle" or "analytical").
	Model string `json:"model"`
	// SatRate is the delivered saturation throughput
	// (packets/tile/cycle): the measured plateau on the cycle tier, the
	// derated closed-form capacity scaled by path reachability on the
	// analytical tier.
	SatRate float64 `json:"satRate"`
	// Latency is the average packet latency (cycles) at
	// probeLoadFraction of the topology's ideal saturation bound.
	Latency float64 `json:"latency"`
}

// topoCandidate is the pre-evaluation identity of a point.
type topoCandidate struct {
	topology string
	faults   int
	trial    int
}

func (c topoCandidate) String() string {
	return fmt.Sprintf("topo point %s/%d faults/trial %d", c.topology, c.faults, c.trial)
}

// TopoModelError is the per-topology screen-vs-verified error summary.
type TopoModelError struct {
	Topology       string  `json:"topology"`
	Points         int     `json:"points"`
	SatMeanPct     float64 `json:"satMeanPct"`
	SatMaxPct      float64 `json:"satMaxPct"`
	LatencyMeanPct float64 `json:"latencyMeanPct"`
	LatencyMaxPct  float64 `json:"latencyMaxPct"`
}

// TopoSweepRun is the result of ExploreTopologiesCtx.
type TopoSweepRun struct {
	// Model labels All/Frontier ("cycle" for two-tier runs).
	Model   string `json:"model"`
	TwoTier bool   `json:"twoTier"`

	// All are the evaluated points (two-tier: the verified survivors);
	// Frontier is the subset not dominated on (SatRate max, Latency
	// min), both sorted by SatRate.
	All      []TopoPoint `json:"all"`
	Frontier []TopoPoint `json:"frontier"`

	// Screened is the analytical evaluation of every candidate
	// (two-tier only), in enumeration order.
	Screened    []TopoPoint `json:"screened,omitempty"`
	Survivors   int         `json:"survivors,omitempty"`
	ScreenedOut int         `json:"screenedOut,omitempty"`

	// SatRankCorr/LatencyRankCorr are Spearman correlations of the
	// screen ordering against the verified ordering over the survivors;
	// PerTopology breaks the relative errors down by topology.
	SatRankCorr     float64          `json:"satRankCorr,omitempty"`
	LatencyRankCorr float64          `json:"latencyRankCorr,omitempty"`
	PerTopology     []TopoModelError `json:"perTopology,omitempty"`

	// ScreenElapsed/VerifyElapsed time the two tiers (two-tier runs);
	// EvalElapsed times a single-tier run. The screen speedup of a
	// two-tier run against an exhaustive cycle run is
	// exhaustive.EvalElapsed / twotier.ScreenElapsed.
	ScreenElapsed time.Duration `json:"screenElapsed,omitempty"`
	VerifyElapsed time.Duration `json:"verifyElapsed,omitempty"`
	EvalElapsed   time.Duration `json:"evalElapsed,omitempty"`
}

// enumerateTopoSpace expands the space into candidates, normalizing
// topology names and collapsing the fault-free count to one trial.
func enumerateTopoSpace(space TopoSweepSpace) ([]topoCandidate, error) {
	if space.Side < 2 {
		return nil, fmt.Errorf("core: topo sweep side %d too small", space.Side)
	}
	topos := space.Topologies
	if len(topos) == 0 {
		topos = noc.TopologyNames()
	}
	trials := space.Trials
	if trials < 1 {
		trials = 1
	}
	counts := space.FaultCounts
	if len(counts) == 0 {
		counts = []int{0}
	}
	var out []topoCandidate
	for _, t := range topos {
		name, err := noc.NormalizeTopology(t)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			if n < 0 || n >= space.Side*space.Side-1 {
				return nil, fmt.Errorf("core: topo sweep fault count %d out of range for side %d", n, space.Side)
			}
			nt := trials
			if n == 0 {
				nt = 1 // every fault-free trial is the same map
			}
			for tr := 0; tr < nt; tr++ {
				out = append(out, topoCandidate{topology: name, faults: n, trial: tr})
			}
		}
	}
	return out, nil
}

// evalTopoCandidate prices one candidate's fault map with the selected
// backend.
func evalTopoCandidate(ctx context.Context, space TopoSweepSpace, c topoCandidate, model EvalModel) (TopoPoint, error) {
	// Derive the map seed the same way the chaos and wsim trial sweeps
	// do, so a (seed, faults, trial) triple names the same fault map
	// everywhere.
	rng := rand.New(rand.NewSource(fault.TrialSeed(space.Seed, c.faults, c.trial)))
	p, err := probeNoC(ctx, fault.Random(geom.NewGrid(space.Side, space.Side), c.faults, rng), model, c.topology)
	if err != nil {
		return TopoPoint{}, err
	}
	return TopoPoint{
		Topology: c.topology, Faults: c.faults, Trial: c.trial, Model: string(model),
		SatRate: p.satRate, Latency: p.latency,
	}, nil
}

// dominatesTopo reports strict Pareto dominance on the sweep's two
// objectives: delivered saturation up, loaded latency down.
func dominatesTopo(a, b TopoPoint) bool {
	geq := a.SatRate >= b.SatRate && a.Latency <= b.Latency
	gt := a.SatRate > b.SatRate || a.Latency < b.Latency
	return geq && gt
}

// ExploreTopologiesCtx evaluates the topology x fault-map space. With
// opts.TwoTier it screens every candidate with the closed-form
// analytical model and cycle-verifies only the candidates that could
// plausibly reach the frontier — survivor selection keeps any point not
// dominated by a band-confident margin, plus a top-K insurance slice
// per objective — and reports screen-vs-verified model error. The
// verified frontier equals an exhaustive cycle run's frontier as long
// as the screen's relative error stays inside the band (regression-
// tested on a small grid).
func ExploreTopologiesCtx(ctx context.Context, space TopoSweepSpace, opts TopoSweepOpts) (*TopoSweepRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	combos, err := enumerateTopoSpace(space)
	if err != nil {
		return nil, err
	}
	if len(combos) == 0 {
		return nil, fmt.Errorf("core: empty topology sweep space")
	}
	tt := twoTier[topoCandidate, TopoPoint]{
		eval: func(ctx context.Context, cs []topoCandidate, model EvalModel, tick func()) ([]TopoPoint, error) {
			return evalAll(ctx, cs, opts.Workers, tick, func(c topoCandidate) (TopoPoint, error) {
				return evalTopoCandidate(ctx, space, c, model)
			})
		},
		rule: topoRule,
		objectives: []func(a, b TopoPoint) bool{
			func(a, b TopoPoint) bool { return a.SatRate > b.SatRate },
			func(a, b TopoPoint) bool { return a.Latency < b.Latency },
		},
		progress: opts.Progress,
	}
	run := &TopoSweepRun{TwoTier: opts.TwoTier}
	if opts.TwoTier {
		r, err := tt.run(ctx, combos)
		if err != nil {
			return nil, err
		}
		run.Model = string(ModelCycle)
		run.All = r.verified
		run.Screened = r.screened
		run.Survivors = len(r.survivors)
		run.ScreenedOut = len(combos) - len(r.survivors)
		run.ScreenElapsed = r.screenElapsed
		run.VerifyElapsed = r.verifyElapsed
		buildTopoErrorReport(run, r.screened, r.survivors, r.verified)
	} else {
		model, err := opts.Model.normalized()
		if err != nil {
			return nil, err
		}
		if run.All, run.EvalElapsed, err = tt.stage(ctx, "evaluate", combos, model); err != nil {
			return nil, err
		}
		run.Model = string(model)
	}
	run.Frontier = paretoFront(run.All, dominatesTopo, func(a, b TopoPoint) bool { return a.SatRate < b.SatRate })
	return run, nil
}

// topoRule keeps every screened candidate that no other candidate
// dominates by a band-confident margin of DefaultTopoBandPct percent on
// both objectives. Every candidate is in the insurance pool.
func topoRule(screened []TopoPoint) (keep, pool []int) {
	f := DefaultTopoBandPct / 100
	confidentlyDominates := func(a, b TopoPoint) bool {
		return a.SatRate >= b.SatRate*(1+f) && a.Latency <= b.Latency/(1+f)
	}
	for i, p := range screened {
		pool = append(pool, i)
		if !slices.ContainsFunc(screened, func(q TopoPoint) bool { return confidentlyDominates(q, p) }) {
			keep = append(keep, i)
		}
	}
	return keep, pool
}

func buildTopoErrorReport(run *TopoSweepRun, screened []TopoPoint, surv []int, verified []TopoPoint) {
	if len(surv) == 0 {
		return
	}
	var screenSat, exactSat, screenLat, exactLat []float64
	perTopo := map[string]*TopoModelError{}
	var order []string
	for k, idx := range surv {
		s, v := screened[idx], verified[k]
		te := perTopo[s.Topology]
		if te == nil {
			te = &TopoModelError{Topology: s.Topology}
			perTopo[s.Topology] = te
			order = append(order, s.Topology)
		}
		satPct := relPct(s.SatRate, v.SatRate)
		latPct := relPct(s.Latency, v.Latency)
		te.Points++
		te.SatMeanPct += satPct
		te.LatencyMeanPct += latPct
		te.SatMaxPct = math.Max(te.SatMaxPct, satPct)
		te.LatencyMaxPct = math.Max(te.LatencyMaxPct, latPct)
		screenSat = append(screenSat, s.SatRate)
		exactSat = append(exactSat, v.SatRate)
		screenLat = append(screenLat, s.Latency)
		exactLat = append(exactLat, v.Latency)
	}
	for _, name := range order {
		te := perTopo[name]
		te.SatMeanPct /= float64(te.Points)
		te.LatencyMeanPct /= float64(te.Points)
		run.PerTopology = append(run.PerTopology, *te)
	}
	run.SatRankCorr = spearmanRank(screenSat, exactSat)
	run.LatencyRankCorr = spearmanRank(screenLat, exactLat)
}

// FormatTopoSweep renders a topology sweep result.
func FormatTopoSweep(run *TopoSweepRun) string {
	var b []byte
	onFrontier := map[TopoPoint]bool{}
	for _, p := range run.Frontier {
		onFrontier[p] = true
	}
	b = append(b, fmt.Sprintf("%-10s %7s %6s %10s %12s %8s\n", "topology", "faults", "trial", "sat rate", "latency", "pareto")...)
	for _, p := range run.All {
		b = append(b, fmt.Sprintf("%-10s %7d %6d %10.4f %10.1fcy %8v\n",
			p.Topology, p.Faults, p.Trial, p.SatRate, p.Latency, onFrontier[p])...)
	}
	if run.TwoTier {
		b = append(b, fmt.Sprintf("two-tier: %d of %d candidates verified (screen %v, verify %v)\n",
			run.Survivors, run.Survivors+run.ScreenedOut, run.ScreenElapsed.Round(time.Millisecond), run.VerifyElapsed.Round(time.Millisecond))...)
		b = append(b, fmt.Sprintf("screen rank corr: saturation %.3f, latency %.3f\n", run.SatRankCorr, run.LatencyRankCorr)...)
		for _, te := range run.PerTopology {
			b = append(b, fmt.Sprintf("  %-10s %d pts: sat err mean %.1f%% max %.1f%%, latency err mean %.1f%% max %.1f%%\n",
				te.Topology, te.Points, te.SatMeanPct, te.SatMaxPct, te.LatencyMeanPct, te.LatencyMaxPct)...)
		}
	}
	return string(b)
}
