package main

import (
	"fmt"
	"sync"
	"time"

	"waferscale/internal/core"
	"waferscale/internal/workload"
)

// chaos: both runtime-fault survival drivers on small machines, each
// with 0, 1 and 2 seeded tile kills mid-run. core.RunChaos runs BFS
// with warm-state forking; workload.RunChaos runs the transformer
// block. Two trial workers each.
type chaos struct {
	d  *core.Design
	cc core.ChaosConfig
	wc workload.ChaosConfig
	g  *workload.Graph
	// Wall time per completed trial over the run's traced ops.
	coreTrial, wlTrial perTrial
}

// sweepClock follows one sweep through its Progress callbacks, which
// arrive from the trial workers.
type sweepClock struct {
	mu      sync.Mutex
	last    time.Time
	trials  int
	stepped int64
}

func (c *sweepClock) done(stepped int64) {
	c.mu.Lock()
	c.last = time.Now()
	c.trials++
	c.stepped = max(c.stepped, stepped)
	c.mu.Unlock()
}

type perTrial struct {
	ns     int64
	trials int
}

// add folds in a sweep started at start: with two trial workers the
// interval to its last completion, per trial, is the wall time each
// trial cost, not one trial's duration.
func (p *perTrial) add(start time.Time, c *sweepClock) {
	p.ns += int64(c.last.Sub(start))
	p.trials += c.trials
}

func (p perTrial) ms() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.ns) / float64(p.trials) / 1e6
}

func setupChaos(seed int64) (instance, error) {
	cc := core.DefaultChaosConfig()
	cc.Side, cc.Workers, cc.GraphSide = 4, 8, 6
	cc.Kills, cc.Trials = []int{0, 1, 2}, 2
	cc.MaxCycles, cc.Fork = 80_000, true
	cc.TrialWorkers, cc.Seed = 2, seed
	wc := workload.DefaultChaosConfig()
	wc.Side = 4
	wc.Kills, wc.Trials = []int{0, 1, 2}, 2
	wc.TrialWorkers, wc.Seed = 2, seed
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if err := wc.Validate(); err != nil {
		return nil, err
	}
	return &chaos{d: core.NewDesign(), cc: cc, wc: wc, g: workload.TransformerBlock(0, 0, 0)}, nil
}

func (c *chaos) op(root *span, _ int) (map[string]float64, error) {
	var coreClock, wlClock sweepClock
	cc, wc := c.cc, c.wc
	cc.Progress = func(_, _ int, stepped int64) { coreClock.done(stepped) }
	wc.Progress = func(int, int) { wlClock.done(0) }

	start := time.Now()
	sp := root.child("core.run_chaos")
	cpts, err := c.d.RunChaos(cc)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("core chaos: %w", err)
	}
	if root != nil {
		c.coreTrial.add(start, &coreClock)
	}

	start = time.Now()
	sp = root.child("workload.run_chaos")
	wpts, err := workload.RunChaos(wc, c.g)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("workload chaos: %w", err)
	}
	if root != nil {
		c.wlTrial.add(start, &wlClock)
	}

	var verified, trials, unverified int
	var coreRetries, coreRelays, wlRelays float64
	for _, p := range cpts {
		if p.Kills == 0 {
			if p.Verified != p.Trials {
				return nil, fmt.Errorf("core chaos: %d of %d fault-free trials verified", p.Verified, p.Trials)
			}
			continue
		}
		verified += p.Verified
		trials += p.Trials
		coreRetries += p.MeanRetries
		coreRelays += p.MeanRelays
	}
	for _, p := range wpts {
		unverified += p.Completed - p.Verified
		if p.Kills == 0 {
			if p.Verified != p.Trials {
				return nil, fmt.Errorf("workload chaos: %d of %d fault-free trials verified", p.Verified, p.Trials)
			}
			continue
		}
		verified += p.Verified
		trials += p.Trials
		wlRelays += p.MeanRelays
	}
	killPoints := float64(len(cc.Kills) - 1)
	return map[string]float64{
		"survival_pct":                        100 * float64(verified) / float64(trials),
		"core.cycles_stepped":                 float64(coreClock.stepped),
		"core.guest_mean_retries":             coreRetries / killPoints,
		"core.guest_mean_relays":              coreRelays / killPoints,
		"workload.guest_mean_relays":          wlRelays / killPoints,
		"workload.guest_completed_unverified": float64(unverified),
	}, nil
}

func (c *chaos) layers(ts traceSummary, _ map[string]float64) map[string]float64 {
	return map[string]float64{
		"core.run_chaos_ms":     ts.perOp("core.run_chaos", time.Millisecond),
		"core.trial_ms":         c.coreTrial.ms(),
		"workload.run_chaos_ms": ts.perOp("workload.run_chaos", time.Millisecond),
		"workload.trial_ms":     c.wlTrial.ms(),
	}
}

func (c *chaos) close() {}
