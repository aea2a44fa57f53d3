// Command waferscale is the design-flow CLI: it regenerates the
// paper's analyses (Table I, the Fig. 2 droop map, the Fig. 4 clock
// plan, the Section V yield numbers, the Fig. 6 network Monte Carlo,
// the Section VII test timing, the Section VIII substrate routing) and
// runs the design-space sweeps.
//
// Usage:
//
//	waferscale spec                      print Table I
//	waferscale report [-faults N]        run every analysis
//	waferscale droop [-profile]          Fig. 2 voltage map / center-row profile
//	waferscale clock [-faults N]         clock forwarding plan on a random fault map
//	waferscale yield                     Section V bonding-yield comparison
//	waferscale nocmc [-trials N]         Fig. 6 disconnected-pairs Monte Carlo
//	waferscale jtag                      Section VII load-time headline
//	waferscale route                     route + DRC a tile pair on the substrate
//	waferscale dse                       design-space sweeps
//	waferscale chaos [-kills 0,1,2,4,8]  runtime fault-injection survival curve
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"waferscale/internal/arch"
	"waferscale/internal/clock"
	"waferscale/internal/core"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/jtag"
	"waferscale/internal/noc"
	"waferscale/internal/pdn"
	"waferscale/internal/sim"
	"waferscale/internal/substrate"
	"waferscale/internal/version"
	"waferscale/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "spec":
		err = cmdSpec(args)
	case "report":
		err = cmdReport(args)
	case "droop":
		err = cmdDroop(args)
	case "clock":
		err = cmdClock(args)
	case "yield":
		err = cmdYield(args)
	case "jtag":
		err = cmdJTAG(args)
	case "route":
		err = cmdRoute(args)
	case "transient":
		err = cmdTransient(args)
	case "kgd":
		err = cmdKGD(args)
	case "place":
		err = cmdPlace(args)
	case "validate":
		err = cmdValidate(args)
	case "toposweep":
		err = cmdTopoSweep(args)
	case "workload":
		err = cmdWorkload(args)
	case "nocmc", "throughput", "chaos", "pareto", "dse":
		err = runRouted(cmd, args)
	case "version", "-version", "--version":
		fmt.Println(version.String())
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "waferscale: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "waferscale %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: waferscale <command> [flags]

commands:
  spec     print Table I (salient features)
  report   run every analysis against a fault map
  droop    Fig. 2 power-delivery droop map
  clock    Fig. 3/4 clock selection and forwarding
  yield    Section V bonding yield and I/O figures
  nocmc    Fig. 6 network-resiliency Monte Carlo
  jtag     Section VII test/load-time analysis
  route      Section VIII substrate routing + DRC
  dse        design-space exploration sweeps
  transient  LDO + decap load-step simulation
  throughput NoC latency-throughput curve
  kgd        pre-bond screening / assembly-policy comparison
  place      optimize clock-generator placement on a fault map
  validate   run BFS on a reduced simulated machine vs a host oracle
  pareto     explore the (throughput, power, yield) design space
  toposweep  explore NoC topologies across random fault maps
  chaos      BFS survival curve under runtime fault injection
  workload   compile an operator graph onto the wafer and run it
  version    print build information

spec, report and validate accept -config <file.json> to evaluate a custom design`)
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON config file overriding the prototype design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := loadDesign(*cfgPath)
	if err != nil {
		return err
	}
	fmt.Print(d.FormatSpec())
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	faults := fs.Int("faults", 5, "random faulty tiles")
	trials := fs.Int("trials", 8, "Monte Carlo trials")
	seed := fs.Int64("seed", 2021, "random seed")
	workers := fs.Int("workers", 0, "host goroutines for the analyses (0 = GOMAXPROCS)")
	cfgPath := fs.String("config", "", "JSON config file overriding the prototype design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := loadDesign(*cfgPath)
	if err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("trials %d < 1", *trials)
	}
	if tiles := d.Cfg.Tiles(); *faults < 0 || *faults > tiles {
		return fmt.Errorf("faults %d outside 0..%d", *faults, tiles)
	}
	d.Workers = *workers
	fm := fault.Random(d.Cfg.Grid(), *faults, rand.New(rand.NewSource(*seed)))
	return d.WriteFullReport(context.Background(), os.Stdout, fm, *trials, *seed, nil)
}

func cmdDroop(args []string) error {
	fs := flag.NewFlagSet("droop", flag.ExitOnError)
	profile := fs.Bool("profile", false, "print the center-row 1-D profile instead of the map")
	workers := fs.Int("workers", 0, "host goroutines for the droop solve (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := core.NewDesign()
	d.Workers = *workers
	rep, err := d.AnalyzePower()
	if err != nil {
		return err
	}
	if *profile {
		fmt.Println("Fig. 2 profile: west edge -> center -> east edge (volts)")
		for x, v := range rep.Solution.Profile(d.Cfg.TilesY / 2) {
			fmt.Printf("  x=%2d  %.3f\n", x, v)
		}
	} else {
		fmt.Print(rep.Solution.DroopMapString())
	}
	fmt.Printf("min %.3f V at %v; plane loss %.1f W; edge draw %.0f W\n",
		rep.MinVolt, rep.MinAt, rep.ResistiveLossW, rep.EdgePowerW)
	return nil
}

func cmdClock(args []string) error {
	fs := flag.NewFlagSet("clock", flag.ExitOnError)
	faults := fs.Int("faults", 6, "random faulty tiles")
	side := fs.Int("side", 8, "array side (8 reproduces Fig. 4 scale)")
	seed := fs.Int64("seed", 4, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkArray(*side, *faults); err != nil {
		return err
	}
	grid := geom.NewGrid(*side, *side)
	fm := fault.Random(grid, *faults, rand.New(rand.NewSource(*seed)))
	cfg := clock.DefaultSetup(grid)
	if fm.Faulty(cfg.Generators[0]) {
		for _, c := range grid.EdgeCoords() {
			if fm.Healthy(c) {
				cfg.Generators = []geom.Coord{c}
				break
			}
		}
	}
	plan, err := clock.RunSetup(fm, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("clock forwarding plan (%dx%d, %d faults; G generator, digits = hops mod 10, X faulty, ! starved):\n",
		*side, *side, *faults)
	fmt.Print(plan.Render(fm))
	starved := plan.UnreachedTiles(fm)
	fmt.Printf("clocked %d/%d healthy tiles; starved: %v; max hops %d\n",
		fm.HealthyCount()-len(starved), fm.HealthyCount(), starved, plan.MaxHops())
	return nil
}

// checkArray rejects an array side or fault count that a square
// side x side tile array cannot hold.
func checkArray(side, faults int) error {
	if side < 1 {
		return fmt.Errorf("side %d < 1", side)
	}
	if tiles := side * side; faults < 0 || faults > tiles {
		return fmt.Errorf("faults %d outside 0..%d", faults, tiles)
	}
	return nil
}

func cmdYield(args []string) error {
	fs := flag.NewFlagSet("yield", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := core.NewDesign()
	rep, err := d.AnalyzeYield()
	if err != nil {
		return err
	}
	c := rep.Comparison
	fmt.Printf("per-pillar bond yield: %.4f%%\n", d.PillarYield*100)
	fmt.Printf("%-22s %14s %14s\n", "", "1 pillar/pad", "2 pillars/pad")
	fmt.Printf("%-22s %13.4f%% %13.5f%%\n", "pad yield", c.SinglePadYield*100, c.DualPadYield*100)
	fmt.Printf("%-22s %13.2f%% %13.3f%%\n", "chiplet yield", c.SingleChipletYield*100, c.DualChipletYield*100)
	fmt.Printf("%-22s %14.1f %14.3f\n", "expected bad chiplets", c.SingleExpectedBad, c.DualExpectedBad)
	fmt.Printf("I/O energy %.3f pJ/bit; compute-chiplet I/O area %.2f mm2\n",
		rep.EnergyPerBitPJ, rep.IOAreaMM2)
	return nil
}

func cmdJTAG(args []string) error {
	fs := flag.NewFlagSet("jtag", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := core.NewDesign()
	rep, err := d.AnalyzeTest()
	if err != nil {
		return err
	}
	fmt.Printf("full-wafer memory load, single %d-tile chain: %v\n",
		d.Cfg.Tiles(), rep.SingleChainLoad.Round(time.Minute))
	fmt.Printf("with %d row chains:                          %v (%.1fx)\n",
		d.Cfg.JTAGChains, rep.MultiChainLoad.Round(time.Second), rep.ChainSpeedup)
	fmt.Printf("intra-tile broadcast mode:                  %.0fx shift-latency reduction\n",
		rep.BroadcastSpeedup)
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	full := fs.Bool("full", false, "route the complete 32x32 wafer netlist (~732k nets)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *full {
		cfg := substrate.DefaultWaferNetlist(geom.NewGrid(32, 32))
		start := time.Now()
		r, routed, err := substrate.RouteWafer(cfg, substrate.DefaultRules(), substrate.DefaultReticle())
		if err != nil {
			return err
		}
		u := r.Utilization()
		fmt.Printf("full wafer: routed %d nets jog-free in %v\n", routed, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  total wire %.2f m, %d tracks, %d seam crossings\n",
			u.TotalWireUM/1e6, u.TracksUsed, u.SeamCrossings)
		return nil
	}
	rep, err := core.NewDesign().AnalyzeSubstrate()
	if err != nil {
		return err
	}
	fmt.Printf("reticle exposures: %dx%d (12x6 tiles each)\n", rep.ReticlesX, rep.ReticlesY)
	fmt.Printf("tile-pair nets routed jog-free: %d (%d seam crossings)\n", rep.RoutedNets, rep.SeamCrossings)
	fmt.Printf("DRC violations: %d\n", rep.DRCViolations)
	fmt.Printf("single-layer fallback: alive=%v, shared capacity -%.0f%%\n",
		rep.FallbackAlive, rep.FallbackCapacityLoss)
	return nil
}

// cmdTopoSweep explores the topology x fault-map space: every shipped
// topology against random fault populations, screened analytically and
// (by default) cycle-verified two-tier.
func cmdTopoSweep(args []string) error {
	fs := flag.NewFlagSet("toposweep", flag.ExitOnError)
	side := fs.Int("side", 16, "array side (vertical needs it even)")
	counts := intList{0, 4, 8}
	fs.Var(&counts, "faults", "comma-separated fault counts")
	trials := fs.Int("trials", 2, "random fault maps per nonzero count")
	seed := fs.Int64("seed", 2021, "fault-map seed")
	workers := fs.Int("workers", 0, "host goroutines evaluating candidates (0 = GOMAXPROCS)")
	mode := fs.String("mode", "twotier", "evaluation strategy: exact | screen (analytical only) | twotier (screen then verify)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("trials %d < 1", *trials)
	}
	space := core.TopoSweepSpace{Side: *side, FaultCounts: counts, Trials: *trials, Seed: *seed}
	opts := core.TopoSweepOpts{Workers: *workers}
	switch *mode {
	case "exact":
		opts.Model = core.ModelCycle
	case "screen":
		opts.Model = core.ModelAnalytical
	case "twotier":
		opts.TwoTier = true
	default:
		return fmt.Errorf("unknown -mode %q (want exact|screen|twotier)", *mode)
	}
	run, err := core.ExploreTopologiesCtx(context.Background(), space, opts)
	if err != nil {
		return err
	}
	fmt.Printf("topology sweep on %dx%d (%d trials/count, model=%s)\n", *side, *side, *trials, run.Model)
	fmt.Print(core.FormatTopoSweep(run))
	return nil
}

// topoLabel renders a -topology flag value for banners ("" = mesh).
func topoLabel(topology string) string {
	name, err := noc.NormalizeTopology(topology)
	if err != nil {
		return topology
	}
	return name
}

// loadDesign builds the design point, applying an optional JSON config.
func loadDesign(path string) (*core.Design, error) {
	d := core.NewDesign()
	if path == "" {
		return d, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := arch.ReadConfig(f)
	if err != nil {
		return nil, err
	}
	d.Cfg = cfg
	return d, nil
}

func cmdTransient(args []string) error {
	fs := flag.NewFlagSet("transient", flag.ExitOnError)
	decap := fs.Float64("decap-nf", 20, "decoupling capacitance in nF")
	step := fs.Float64("step-ma", 200, "load step in mA")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := pdn.DefaultTransient()
	cfg.DecapF = *decap * 1e-9
	cfg.StepLoadA = *step * 1e-3
	res, err := pdn.SimulateTransient(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("load step %.0f mA against %.0f nF at Vin=%.2f V:\n", *step, *decap, cfg.VinV)
	fmt.Printf("  excursion  %.3f .. %.3f V (window %.1f-%.1f V: ok=%v)\n",
		res.MinV, res.MaxV, cfg.LDO.MinOutV, cfg.LDO.MaxOutV, res.InWindow)
	fmt.Printf("  undershoot %.1f mV, settles at %.3f V\n", res.UndershootV*1000, res.SettledV)
	min, err := pdn.MinDecapForWindow(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  minimum decap for this step: %.1f nF (paper budget: 20 nF)\n", min*1e9)
	return nil
}

func cmdKGD(args []string) error {
	fs := flag.NewFlagSet("kgd", flag.ExitOnError)
	dieYield := fs.Float64("die-yield", 0.90, "manufacturing yield")
	batch := fs.Int("batch", 128, "chiplets to screen")
	seed := fs.Int64("seed", 7, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 0 {
		return fmt.Errorf("batch %d < 0", *batch)
	}
	if !(*dieYield >= 0 && *dieYield <= 1) {
		return fmt.Errorf("die-yield %g outside 0..1", *dieYield)
	}
	chiplets := jtag.RandomBatch(*batch, 4, *dieYield, rand.New(rand.NewSource(*seed)))
	res, _ := jtag.ScreenChiplets(chiplets)
	fmt.Printf("probe-tested %d chiplets: %d known-good, %d rejected (%d/%d screening errors)\n",
		res.Tested, res.KnownGood, res.Rejected, res.FalseAccepts, res.FalseRejects)
	out := jtag.CompareKGD(2048, *dieYield, 0.99998)
	fmt.Printf("2048-site wafer: %.1f expected bad sites without KGD screening, %.3f with\n",
		out.FaultyWithoutKGD, out.FaultyWithKGD)
	cmp, err := jtag.ComparePolicies(16, 2, 0.05, 40, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("during-assembly testing (16-tile chains, %d wafers): %.1f KGD dies wasted per failure at-end vs %.1f per-placement\n",
		cmp.Wafers, cmp.WastedPerFailureEnd, cmp.WastedPerFailureInc)
	return nil
}

func cmdPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ExitOnError)
	side := fs.Int("side", 32, "array side")
	k := fs.Int("k", 2, "generators to place")
	faults := fs.Int("faults", 5, "random faulty tiles")
	seed := fs.Int64("seed", 2021, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkArray(*side, *faults); err != nil {
		return err
	}
	if *k < 1 {
		return fmt.Errorf("k %d < 1", *k)
	}
	grid := geom.NewGrid(*side, *side)
	fm := fault.Random(grid, *faults, rand.New(rand.NewSource(*seed)))
	for _, kk := range []int{1, *k} {
		res, err := clock.PlaceGenerators(fm, kk)
		if err != nil {
			return err
		}
		fmt.Printf("k=%d generators %v: max %d hops, mean %.1f, %d unreached\n",
			kk, res.Generators, res.MaxHops, res.MeanHops, res.Unreached)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	side := fs.Int("side", 4, "reduced array side (the paper's FPGA emulation was also reduced)")
	workers := fs.Int("workers", 16, "worker cores")
	faults := fs.Int("faults", 1, "random faulty tiles")
	seed := fs.Int64("seed", 2021, "random seed")
	cfgPath := fs.String("config", "", "JSON config file overriding the prototype design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkArray(*side, *faults); err != nil {
		return err
	}
	d, err := loadDesign(*cfgPath)
	if err != nil {
		return err
	}
	grid := geom.NewGrid(*side, *side)
	fm := fault.Random(grid, *faults, rand.New(rand.NewSource(*seed)))
	res, err := d.ValidateSystem(*side, *workers, fm)
	if err != nil {
		return err
	}
	fmt.Printf("%s on a %dx%d machine (%d faults): verified=%v\n",
		res.Workload, *side, *side, *faults, res.Verified)
	fmt.Printf("cycles %d, instret %d, remote ops %d\n", res.Cycles, res.Instructions, res.RemoteOps)
	fmt.Printf("CPI %.2f, %.1f%% of core time in remote stalls\n",
		res.Profile.CPI(), res.Profile.RemoteStallFrac()*100)
	if !res.Verified {
		return fmt.Errorf("validation diverged from the host reference")
	}
	return nil
}

// cmdWorkload compiles an operator graph (a built-in or a JSON file)
// onto a reduced machine and either runs it once with per-operator
// metrics, sweeps every topology x placement combination ranked by
// end-to-end latency, or runs a Monte-Carlo survival curve with tiles
// killed mid-operator. Every mode verifies outputs against the pure-Go
// reference executors.
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	graphFile := fs.String("graph", "", "JSON operator-graph file (see examples/); empty = built-in")
	builtin := fs.String("builtin", "transformer", "built-in graph name (with empty -graph)")
	tokens := fs.Int("tokens", 0, "built-in graph tokens (0 = default)")
	dim := fs.Int("dim", 0, "built-in graph model dimension (0 = default)")
	experts := fs.Int("experts", 0, "built-in graph MoE experts (0 = default)")
	side := fs.Int("side", 8, "machine array side")
	topology := fs.String("topology", "", "NoC link graph: mesh (default) | cmesh | express | vertical (needs an even side)")
	placement := fs.String("placement", "", "tensor placement: rowmajor (default) | blocked | bandwidth")
	workersPerOp := fs.Int("workers", 8, "worker cores per operator")
	opBudget := fs.Int64("max-cycles", 4_000_000, "per-operator cycle budget")
	sweep := fs.Bool("sweep", false, "rank every topology x placement combination by end-to-end cycles")
	chaos := fs.Bool("chaos", false, "run the Monte-Carlo survival curve (tiles killed mid-operator)")
	trials := fs.Int("trials", 8, "chaos trials per kill count")
	kills := intList{0, 1, 2, 4}
	fs.Var(&kills, "kills", "chaos comma-separated tile kill counts")
	seed := fs.Int64("seed", 2021, "chaos master seed (per-trial seeds are derived)")
	from := fs.Int64("kill-from", 200, "chaos earliest kill cycle")
	to := fs.Int64("kill-to", 4000, "chaos latest kill cycle")
	hostWorkers := fs.Int("host-workers", 0, "host goroutines running trials/combinations (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *workload.Graph
	var err error
	if *graphFile != "" {
		data, rerr := os.ReadFile(*graphFile)
		if rerr != nil {
			return rerr
		}
		if g, err = workload.ParseGraph(data); err != nil {
			return err
		}
	} else if g, err = workload.Builtin(*builtin, *tokens, *dim, *experts); err != nil {
		return err
	}

	if *sweep {
		run, err := core.ExploreWorkloadTopologiesCtx(context.Background(), g, core.WorkloadTopoOpts{
			Side:         *side,
			Workers:      *hostWorkers,
			WorkersPerOp: *workersPerOp,
			OpBudget:     *opBudget,
		})
		if err != nil {
			return err
		}
		fmt.Print(core.FormatWorkloadTopoSweep(run))
		return nil
	}

	if *chaos {
		cfg := workload.DefaultChaosConfig()
		cfg.Side = *side
		cfg.Topology = *topology
		cfg.Placement = *placement
		cfg.Trials = *trials
		cfg.Seed = *seed
		cfg.KillWindow = [2]int64{*from, *to}
		cfg.WorkersPerOp = *workersPerOp
		cfg.OpBudget = *opBudget
		cfg.TrialWorkers = *hostWorkers
		cfg.Kills = kills
		points, err := workload.RunChaos(cfg, g)
		if err != nil {
			return err
		}
		fmt.Printf("workload survival curve: %q on %dx%d, tiles killed mid-operator in cycles [%d,%d] (%d trials each)\n",
			g.Name, cfg.Side, cfg.Side, *from, *to, cfg.Trials)
		fmt.Print(sim.FormatChaos(points))
		return nil
	}

	m, err := workload.BuildMachine(*side, *topology)
	if err != nil {
		return err
	}
	outputs, rep, err := workload.Run(m, g, workload.Options{
		Placement:    *placement,
		WorkersPerOp: *workersPerOp,
		OpBudget:     *opBudget,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if deg := m.Degradation(); deg.Degraded() {
		fmt.Print(deg.String())
	}
	if !rep.Completed {
		return fmt.Errorf("graph failed at op %q", rep.FailedOp)
	}
	want, err := workload.Reference(g)
	if err != nil {
		return err
	}
	if bad := workload.CompareOutputs(outputs, want); len(bad) > 0 {
		return fmt.Errorf("ops diverged from the host reference: %v", bad)
	}
	fmt.Println("verified against host reference: OK")
	return nil
}
