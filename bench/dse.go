package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"waferscale/internal/core"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// dse: the design-space tools. A two-tier Pareto exploration of the
// 105-point scale-up space (analytical screen, pdn droop, cycle
// verification of the survivors), a two-tier topology x fault-map
// sweep, and the Fig. 6 connectivity Monte Carlo on 32x32 through both
// analyzers: the mesh prefix-sum sweep and the route-walking
// TopoAnalyzer on the express topology.
const dseWorkers = 2

var (
	dseParetoSpace = core.ParetoSpace{
		Sides:   []int{8, 12, 16, 24, 48, 56, 64},
		EdgeV:   []float64{2.0, 2.25, 2.5, 2.75, 3.0},
		Pillars: []int{1, 2, 3},
	}
	dseFig6Grid = geom.NewGrid(32, 32)
)

type dse struct {
	d    *core.Design
	topo core.TopoSweepSpace
	seed int64
	// want is the warm-up op's output; every later op must match it.
	want *dseOutput
}

type dseOutput struct {
	pareto      []core.DesignPoint
	topo        []core.TopoPoint
	fig6, topo6 []noc.Fig6Point
}

func setupDSE(seed int64) (instance, error) {
	d := core.NewDesign()
	d.Workers = dseWorkers
	return &dse{
		d:    d,
		topo: core.TopoSweepSpace{Side: 16, FaultCounts: []int{0, 6}, Trials: 2, Seed: seed},
		seed: seed,
	}, nil
}

// stageClock turns an explorer's Progress callbacks into stage spans:
// a stage runs from its first callback (done = 0) to its last.
type stageClock struct {
	mu          sync.Mutex
	order       []string
	first, last map[string]time.Time
}

func (c *stageClock) progress(stage string, _, _ int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == nil {
		c.first, c.last = map[string]time.Time{}, map[string]time.Time{}
	}
	if _, ok := c.first[stage]; !ok {
		c.order = append(c.order, stage)
		c.first[stage] = now
	}
	c.last[stage] = now
}

func (c *stageClock) record(parent *span, prefix string) {
	for _, st := range c.order {
		parent.childAt(prefix+st, c.first[st], c.last[st])
	}
}

func (w *dse) op(root *span, _ int) (map[string]float64, error) {
	ctx := context.Background()
	var out dseOutput

	var pclk stageClock
	sp := root.child("core.explore_pareto")
	pr, err := w.d.ExploreParetoCtx(ctx, dseParetoSpace, core.ParetoOpts{TwoTier: true, Progress: pclk.progress})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("pareto: %w", err)
	}
	pclk.record(sp, "core.pareto_")
	out.pareto = pr.Frontier

	var tclk stageClock
	sp = root.child("core.explore_topologies")
	tr, err := core.ExploreTopologiesCtx(ctx, w.topo, core.TopoSweepOpts{TwoTier: true, Workers: dseWorkers, Progress: tclk.progress})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("topology sweep: %w", err)
	}
	tclk.record(sp, "core.topo_")
	out.topo = tr.Frontier

	sp = root.child("noc.fig6")
	out.fig6, err = noc.Fig6SweepCtx(ctx, dseFig6Grid, []int{5, 10}, 8, w.seed, noc.Fig6Opts{Workers: dseWorkers})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	sp = root.child("noc.topo_fig6")
	out.topo6, err = noc.TopoFig6SweepCtx(ctx, noc.TopoExpress, dseFig6Grid, []int{5}, 4, w.seed, noc.Fig6Opts{Workers: dseWorkers})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("topology fig6: %w", err)
	}

	if w.want == nil {
		w.want = &out
	} else if !reflect.DeepEqual(out, *w.want) {
		return nil, fmt.Errorf("frontiers or Fig. 6 points differ from the warm-up op's")
	}
	return map[string]float64{
		"core.pareto_survivor_ratio": float64(pr.Survivors) / float64(len(pr.Screened)),
		"core.topo_survivor_ratio":   float64(tr.Survivors) / float64(len(tr.Screened)),
		"core.topo_sat_rank_corr":    tr.SatRankCorr,
	}, nil
}

func (w *dse) layers(ts traceSummary, _ map[string]float64) map[string]float64 {
	return map[string]float64{
		"core.pareto_screen_ms": ts.perOp("core.pareto_screen", time.Millisecond),
		"core.pareto_verify_ms": ts.perOp("core.pareto_verify", time.Millisecond),
		"core.topo_screen_ms":   ts.perOp("core.topo_screen", time.Millisecond),
		"core.topo_verify_ms":   ts.perOp("core.topo_verify", time.Millisecond),
		"noc.fig6_ms":           ts.perOp("noc.fig6", time.Millisecond),
		"noc.topo_fig6_ms":      ts.perOp("noc.topo_fig6", time.Millisecond),
	}
}

func (w *dse) close() {}
