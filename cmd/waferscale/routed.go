package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"waferscale/internal/core"
	"waferscale/internal/parallel"
	"waferscale/internal/serve"
	"waferscale/internal/sim"
)

// A routed subcommand is a front end over the daemon's run path: its
// flags fill one serve.Spec section, serve.Spec.Normalize applies the
// daemon's defaults and validation, serve.Run computes the result, and
// print renders it. Flag defaults are the fields of the normalized
// default spec, so the CLI and the daemon answer the same question
// when no flag is given.
type routed struct {
	// flags binds the section's flags to sp's fields and returns the
	// host-worker flag (nil when the subcommand has none).
	flags func(fs *flag.FlagSet, sp *serve.Spec) *int
	print func(sp *serve.Spec, res any) error
}

var routedCmds = map[string]routed{
	"nocmc":      {nocmcFlags, printNoCMC},
	"throughput": {throughputFlags, printThroughput},
	"chaos":      {chaosFlags, printChaos},
	"pareto":     {paretoFlags, printPareto},
	"dse":        {dseFlags, printDSE},
}

// normalized normalizes a spec that is valid by construction.
func normalized(sp *serve.Spec) *serve.Spec {
	if err := sp.Normalize(); err != nil {
		panic(err)
	}
	return sp
}

// parseSpec parses a routed subcommand's flags into its normalized
// spec and returns it with the host-worker flag's value.
func parseSpec(kind string, args []string) (*serve.Spec, int, error) {
	sp := normalized(&serve.Spec{Kind: kind})
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	hostWorkers := routedCmds[kind].flags(fs, sp)
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	if err := sp.Normalize(); err != nil {
		return nil, 0, err
	}
	if hostWorkers == nil {
		return sp, 0, nil
	}
	return sp, *hostWorkers, nil
}

func runRouted(kind string, args []string) error {
	sp, hostWorkers, err := parseSpec(kind, args)
	if err != nil {
		return err
	}
	res, err := serve.Run(context.Background(), sp, parallel.Workers(hostWorkers, 0), nil)
	if err != nil {
		return err
	}
	return routedCmds[kind].print(sp, res)
}

func nocmcFlags(fs *flag.FlagSet, sp *serve.Spec) *int {
	n := sp.NoCMC
	fs.IntVar(&n.Trials, "trials", n.Trials, "Monte Carlo trials per fault count")
	fs.Int64Var(&n.Seed, "seed", n.Seed, "random seed")
	fs.IntVar(&n.MaxFaults, "max", n.MaxFaults, "max fault count")
	fs.BoolVar(&n.Chiplet, "chiplet", n.Chiplet, "fault at chiplet granularity (memory faults only cut N-S links)")
	fs.StringVar(&n.Topology, "topology", n.Topology, "NoC link graph: mesh (default) | cmesh | express | vertical")
	return fs.Int("workers", 0, "host goroutines running trials (0 = GOMAXPROCS)")
}

func printNoCMC(sp *serve.Spec, res any) error {
	r := res.(*serve.NoCMCResult)
	if sp.NoCMC.Chiplet {
		fmt.Printf("Fig. 6 at chiplet granularity (32x32, %d trials)\n", sp.NoCMC.Trials)
		fmt.Printf("%8s  %14s  %14s\n", "chiplets", "1 DoR network", "2 DoR networks")
		for _, p := range r.ChipletPoints {
			fmt.Printf("%8d  %13.2f%%  %13.3f%%\n", p.Chiplets, p.PctSingle.Mean, p.PctDual.Mean)
		}
		return nil
	}
	fmt.Printf("Fig. 6: %% disconnected source-destination pairs (32x32 %s, %d trials)\n",
		topoLabel(r.Topology), sp.NoCMC.Trials)
	fmt.Printf("%8s  %14s  %14s\n", "faults", "1 DoR network", "2 DoR networks")
	for _, p := range r.Points {
		fmt.Printf("%8d  %13.2f%%  %13.3f%%\n", p.Faults, p.PctSingle.Mean, p.PctDual.Mean)
	}
	return nil
}

func throughputFlags(fs *flag.FlagSet, sp *serve.Spec) *int {
	t := sp.Throughput
	fs.IntVar(&t.Side, "side", t.Side, "array side")
	fs.IntVar(&t.Faults, "faults", t.Faults, "random faulty tiles")
	fs.Int64Var(&t.Seed, "seed", t.Seed, "random seed")
	fs.StringVar(&t.Model, "model", t.Model, "timing backend: cycle (packet simulation) | analytical (closed-form, approximate)")
	fs.StringVar(&t.Topology, "topology", t.Topology, "NoC link graph: mesh (default) | cmesh | express | vertical (needs an even side)")
	return nil
}

func printThroughput(sp *serve.Spec, res any) error {
	r, t := res.(*serve.ThroughputResult), sp.Throughput
	fmt.Printf("uniform random traffic on %dx%d %s (%d faults, model=%s); saturation bound %.3f pkt/tile/cyc\n",
		t.Side, t.Side, topoLabel(r.Topology), t.Faults, r.Model, r.Saturation)
	fmt.Printf("%10s %12s %12s %14s\n", "offered", "delivered", "avg latency", "backpressured")
	for _, p := range r.Points {
		fmt.Printf("%10.3f %12.4f %11.1fcy %13.1f%%\n",
			p.OfferedRate, p.DeliveredRate, p.AvgLatency, p.Backpressured*100)
	}
	return nil
}

func chaosFlags(fs *flag.FlagSet, sp *serve.Spec) *int {
	c := sp.Chaos
	fs.IntVar(&c.Side, "side", c.Side, "reduced machine array side")
	fs.IntVar(&c.Workers, "workers", c.Workers, "BFS worker cores")
	fs.IntVar(&c.Trials, "trials", c.Trials, "trials per kill count")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "master seed (per-trial seeds are derived)")
	fs.Var((*intList)(&c.Kills), "kills", "comma-separated tile kill counts to sweep")
	fs.Int64Var(&c.KillFrom, "kill-from", c.KillFrom, "earliest kill cycle")
	fs.Int64Var(&c.KillTo, "kill-to", c.KillTo, "latest kill cycle")
	fs.Int64Var(&c.MaxCycles, "max-cycles", c.MaxCycles, "per-trial cycle budget (never-hang bound)")
	fs.IntVar(&c.GraphSide, "graph", c.GraphSide, "BFS mesh graph side")
	return fs.Int("host-workers", 0, "host goroutines running trials (0 = GOMAXPROCS)")
}

func printChaos(sp *serve.Spec, res any) error {
	c := sp.Chaos
	fmt.Printf("runtime survival curve: %d-worker BFS on %dx%d, tiles killed mid-run in cycles [%d,%d] (%d trials each)\n",
		c.Workers, c.Side, c.Side, c.KillFrom, c.KillTo, c.Trials)
	fmt.Print(sim.FormatChaos(res.(*serve.ChaosResult).Points))
	return nil
}

func paretoFlags(fs *flag.FlagSet, sp *serve.Spec) *int {
	p := sp.Pareto
	// The two-tier knobs have defaults only in two-tier mode.
	twoTier := normalized(&serve.Spec{Kind: "pareto", Pareto: &serve.ParetoSpec{Mode: "twotier"}}).Pareto
	fs.StringVar(&p.Mode, "mode", p.Mode, "evaluation strategy: exact | screen (analytical, approximate) | twotier (screen then verify)")
	fs.IntVar(&p.TopK, "topk", twoTier.TopK, "twotier: always verify the top K screened points per objective")
	fs.Float64Var(&p.BandPct, "band", twoTier.BandPct, "twotier: feasibility safety band around the droop floor, % of floor voltage")
	fs.StringVar(&p.Topology, "topology", p.Topology, "NoC link graph behind every design point: mesh (default) | cmesh | express | vertical")
	return fs.Int("workers", 0, "host goroutines evaluating candidates (0 = GOMAXPROCS)")
}

func printPareto(sp *serve.Spec, res any) error {
	r := res.(*serve.ParetoResult)
	onFrontier := map[core.DesignPoint]bool{}
	for _, p := range r.Frontier {
		onFrontier[p] = true
	}
	fmt.Printf("%d feasible points, %d on the Pareto frontier (throughput vs power vs yield; model=%s, topology=%s)\n",
		len(r.All), len(r.Frontier), r.Model, topoLabel(r.Topology))
	fmt.Printf("%6s %7s %8s %10s %10s %10s %9s %8s\n",
		"side", "edge V", "pillars", "TOPS", "power W", "exp. bad", "center V", "pareto")
	for _, p := range r.All {
		fmt.Printf("%6d %7.1f %8d %10.2f %10.0f %10.2f %9.2f %8v\n",
			p.ArraySide, p.EdgeVolts, p.PillarsPerPad, p.ThroughputTOPS,
			p.EdgePowerW, p.ExpectedBad, p.CenterVolt, onFrontier[p])
	}
	if sp.Pareto.Mode != "twotier" {
		return nil
	}
	fmt.Printf("\ntwo-tier screen: %d of %d points verified cycle-accurately, %d screened out analytically\n",
		r.Survivors, r.Survivors+r.ScreenedOut, r.ScreenedOut)
	if me := r.ModelError; me != nil && me.Points > 0 {
		fmt.Printf("model error over verified points: center V mean %.3f%% max %.3f%% (rank corr %.3f), "+
			"noc latency mean %.1f%% max %.1f%% (rank corr %.3f), feasibility agreement %d/%d\n",
			me.CenterVoltMeanPct, me.CenterVoltMaxPct, me.CenterVoltRankCorr,
			me.NoCLatencyMeanPct, me.NoCLatencyMaxPct, me.NoCLatencyRankCorr,
			me.FeasibilityMatches, me.Points)
	}
	return nil
}

func dseFlags(fs *flag.FlagSet, sp *serve.Spec) *int {
	d := sp.DSE
	fs.StringVar(&d.Model, "model", d.Model, "evaluation backend: cycle (exact) | analytical (approximate fast path)")
	fs.StringVar(&d.Topology, "topology", d.Topology, "NoC link graph for the per-side probes: mesh (default) | cmesh | express | vertical")
	return fs.Int("workers", 0, "host goroutines for the sweeps (0 = GOMAXPROCS)")
}

// printDSE prints the array-size sweep, then runs and prints the
// closed-form sweeps that have no daemon kind.
func printDSE(sp *serve.Spec, res any) error {
	r := res.(*serve.DSEResult)
	fmt.Printf("array-size sweep (fixed per-tile design; model=%s, topology=%s):\n", r.Model, topoLabel(r.Topology))
	fmt.Print(core.FormatArraySweep(r.ArrayPoints))

	d := core.NewDesign()
	fmt.Println("\npillar-redundancy sweep:")
	for _, p := range d.SweepPillarRedundancy(3) {
		fmt.Printf("  %d pillars/pad: chiplet yield %.4f%%, expected bad %.2f, pad height %.0f um\n",
			p.PillarsPerPad, p.ChipletYield*100, p.ExpectedBad, p.PadHeightUM)
	}

	fmt.Println("\nJTAG chain-count sweep:")
	chains, err := d.SweepChains([]int{1, 2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	for _, p := range chains {
		fmt.Printf("  %2d chains: %v\n", p.Chains, p.LoadTime.Round(time.Second))
	}

	fmt.Println("\ndecap-technology sweep (20 nF per-tile budget):")
	for _, p := range d.SweepDecapTech() {
		fmt.Printf("  %-30s %6.2f nF/mm2 -> %5.2f mm2 (%.1f%% of tile)\n",
			p.Tech, p.DensityNFMM2, p.AreaMM2, p.TileAreaPct)
	}
	return nil
}

// intList is a comma-separated list of ints as a flag value; setting it
// replaces the default list.
type intList []int

func (l *intList) String() string {
	s := make([]string, len(*l))
	for i, v := range *l {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
}

func (l *intList) Set(list string) error {
	var out []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	*l = out
	return nil
}
