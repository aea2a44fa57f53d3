// Command wsim runs the graph workloads the paper validated on its
// FPGA-emulated multi-tile system — BFS and SSSP as real WS-ISA
// programs on the simulated waferscale machine — and reports cycles,
// instructions and remote-memory behaviour.
//
// Usage:
//
//	wsim -workload bfs -side 4 -vertices 64 -workers 16
//	wsim -workload bfs -side 8 -kill "1,0" -fault-at-cycle 2000
//	wsim -workload bfs -side 8 -faults 3 -fault-seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
	"waferscale/internal/sim"
	"waferscale/internal/version"
	wl "waferscale/internal/workload"
)

func main() {
	workload := flag.String("workload", "bfs", "bfs | sssp | matvec | hist | transformer (operator graph)")
	side := flag.Int("side", 4, "tile array side")
	cores := flag.Int("cores", 4, "cores per tile")
	vertices := flag.Int("vertices", 64, "graph vertices")
	edges := flag.Int("edges", 192, "extra random edges")
	workers := flag.Int("workers", 16, "worker cores")
	src := flag.Int("src", 0, "source vertex")
	seed := flag.Int64("seed", 2021, "graph seed")
	maxCycles := flag.Int64("max-cycles", 50_000_000, "simulation budget")
	profile := flag.Bool("profile", false, "print the machine execution profile")
	faults := flag.Int("faults", 0, "random tiles to kill mid-run")
	faultSeed := flag.Int64("fault-seed", 1, "seed for random mid-run kills")
	kill := flag.String("kill", "", `explicit tiles to kill, e.g. "1,0;2,3"`)
	faultAt := flag.Int64("fault-at-cycle", 1000, "cycle the kills land at")
	trials := flag.Int("trials", 1, "fault-survival trials (with -faults; each draws fresh victims; 1 = one run)")
	hostWorkers := flag.Int("host-workers", 0, "host goroutines running trials (0 = GOMAXPROCS)")
	topoFlag := flag.String("topology", "",
		"NoC link graph: mesh (default) | cmesh | express | vertical (needs an even side)")
	placementFlag := flag.String("placement", "",
		"operator-graph tensor placement: rowmajor (default) | blocked | bandwidth")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	topology = *topoFlag
	placement = *placementFlag

	if *showVersion {
		fmt.Println(version.String())
		return
	}

	var err error
	switch {
	case *trials < 1:
		err = fmt.Errorf("trials %d below 1", *trials)
	case *trials > 1 && *kill != "":
		err = fmt.Errorf("-kill cannot be combined with -trials %d: each trial draws its own -faults victims", *trials)
	case *trials > 1:
		err = runTrials(*workload, *side, *cores, *vertices, *edges, *workers, *src, *seed, *maxCycles,
			*faults, *faultSeed, *faultAt, *trials, *hostWorkers)
	default:
		err = run(*workload, *side, *cores, *vertices, *edges, *workers, *src, *seed, *maxCycles, *profile,
			*faults, *faultSeed, *kill, *faultAt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsim: %v\n", err)
		os.Exit(1)
	}
}

// topology is the -topology selection, which newWsimMachine applies to
// every machine the CLI builds, and placement the -placement selection
// runTransformer places the operator graph with.
var (
	topology  = ""
	placement = ""
)

// newWsimMachine builds a machine with the selected NoC topology on a
// fresh fault map.
func newWsimMachine(cfg arch.Config) (*sim.Machine, error) {
	return sim.NewMachineTopology(cfg, fault.NewMap(cfg.Grid()), topology)
}

// machineConfig is the prototype design cut to a side×side array of
// cores-per-tile tiles, with -faults checked against its tile count.
func machineConfig(side, cores, faults int) (arch.Config, error) {
	cfg := arch.DefaultConfig()
	cfg.CoresPerTile = cores
	cfg, err := cfg.Square(side)
	if err != nil {
		return cfg, err
	}
	if tiles := cfg.Tiles(); faults < 0 || faults > tiles {
		return cfg, fmt.Errorf("faults %d outside 0..%d", faults, tiles)
	}
	return cfg, nil
}

// parseCoords parses a semicolon-separated coordinate list like "1,0;2,3".
func parseCoords(s string) ([]geom.Coord, error) {
	var out []geom.Coord
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		xy := strings.Split(part, ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("bad coordinate %q (want x,y)", part)
		}
		x, errX := strconv.Atoi(strings.TrimSpace(xy[0]))
		y, errY := strconv.Atoi(strings.TrimSpace(xy[1]))
		if errX != nil || errY != nil {
			return nil, fmt.Errorf("bad coordinate %q (want x,y)", part)
		}
		out = append(out, geom.C(x, y))
	}
	return out, nil
}

// buildSchedule assembles the fault schedule requested on the command
// line: explicit -kill coordinates land at -fault-at-cycle; -faults N
// draws N extra victims with -fault-seed.
func buildSchedule(grid geom.Grid, faults int, faultSeed int64, kill string, at int64) (*inject.Schedule, error) {
	sched := inject.NewSchedule()
	coords, err := parseCoords(kill)
	if err != nil {
		return nil, err
	}
	for _, c := range coords {
		sched.KillTileAt(at, c)
	}
	if faults > 0 {
		for _, e := range inject.Random(grid, faults, [2]int64{at, at}, faultSeed, nil).Events() {
			sched.Add(e)
		}
	}
	if err := sched.Validate(grid); err != nil {
		return nil, err
	}
	return sched, nil
}

func run(workload string, side, cores, vertices, edges, workers, src int, seed, maxCycles int64, profile bool,
	faults int, faultSeed int64, kill string, faultAt int64) error {
	cfg, err := machineConfig(side, cores, faults)
	if err != nil {
		return err
	}
	m, err := newWsimMachine(cfg)
	if err != nil {
		return err
	}
	sched, err := buildSchedule(cfg.Grid(), faults, faultSeed, kill, faultAt)
	if err != nil {
		return err
	}
	if sched.Len() > 0 {
		if err := m.AttachSchedule(sched); err != nil {
			return err
		}
		fmt.Printf("fault schedule: %d events\n%s", sched.Len(), sched)
	}
	var g *sim.Graph
	switch workload {
	case "bfs":
		g = sim.RandomGraph(vertices, edges, 1, seed).Unweighted()
	case "sssp":
		g = sim.RandomGraph(vertices, edges, 9, seed)
	case "matvec":
		return reportDegraded(m, runMatVec(m, vertices, workers, seed, maxCycles, profile))
	case "hist":
		return reportDegraded(m, runHistogram(m, vertices*8, workers, seed, maxCycles, profile))
	case "transformer":
		return reportDegraded(m, runTransformer(m, workers, maxCycles, profile))
	default:
		return fmt.Errorf("unknown workload %q (bfs|sssp|matvec|hist|transformer)", workload)
	}
	ws := sim.AllWorkers(m, workers)
	fmt.Printf("%s: %d vertices, %d edges, %d workers on a %dx%d machine (%d cores)\n",
		workload, g.N, g.M(), len(ws), side, side, cfg.TotalCores())

	if sched.Len() > 0 {
		return runDegraded(m, g, src, ws, maxCycles, profile)
	}

	res, err := sim.RunSSSP(m, g, src, ws, maxCycles)
	if err != nil {
		return err
	}
	want := g.ReferenceSSSP(src)
	mismatches := sim.CountMismatches(res.Dist, want)
	fmt.Printf("cycles               %d\n", res.Cycles)
	fmt.Printf("instructions         %d\n", res.Instructions)
	fmt.Printf("remote accesses      %d\n", res.RemoteOps)
	fmt.Printf("mean remote latency  %.1f cycles\n", res.RemoteLatency)
	fmt.Printf("reference mismatches %d/%d\n", mismatches, g.N)
	if mismatches > 0 {
		return fmt.Errorf("results diverge from the host reference")
	}
	fmt.Println("verified against host reference: OK")
	if profile {
		fmt.Println()
		m.WriteProfile(os.Stdout, 8)
	}
	return nil
}

// runTrials is the CLI's mini chaos sweep: N independent machines run
// the same workload under freshly drawn fault schedules, fanned out on
// the shared bounded pool by sim.RunChaosSweep. Per-trial seeds are
// derived with fault.TrialSeed, so the survival counts are identical at
// any -host-workers value.
func runTrials(workload string, side, cores, vertices, edges, workers, src int, seed, maxCycles int64,
	faults int, faultSeed, faultAt int64, trials, hostWorkers int) error {
	if workload != "bfs" && workload != "sssp" {
		return fmt.Errorf("-trials supports bfs|sssp, not %q", workload)
	}
	cfg, err := machineConfig(side, cores, faults)
	if err != nil {
		return err
	}
	if faults == 0 {
		return fmt.Errorf("-trials needs -faults > 0 (fresh random victims per trial)")
	}
	var g *sim.Graph
	if workload == "bfs" {
		g = sim.RandomGraph(vertices, edges, 1, seed).Unweighted()
	} else {
		g = sim.RandomGraph(vertices, edges, 9, seed)
	}
	want := g.ReferenceSSSP(src)
	fmt.Printf("%s under faults: %d trials x %d kills, %d vertices, %d workers on a %dx%d machine\n",
		workload, trials, faults, g.N, workers, side, side)

	sweep := sim.ChaosSweep{Trials: trials, Kills: []int{faults}, TrialWorkers: hostWorkers}
	points, err := sim.RunChaosSweep(context.Background(), sweep, func(_ context.Context, _, i int) (sim.ChaosTrial, error) {
		m, err := newWsimMachine(cfg)
		if err != nil {
			return sim.ChaosTrial{}, err
		}
		sched := inject.Random(cfg.Grid(), faults, [2]int64{faultAt, faultAt},
			fault.TrialSeed(faultSeed, faults, i), nil)
		if err := m.AttachSchedule(sched); err != nil {
			return sim.ChaosTrial{}, err
		}
		res, err := sim.RunSSSPUnderFaults(m, g, src, sim.AllWorkers(m, workers), maxCycles)
		if err != nil {
			return sim.ChaosTrial{}, err
		}
		t := sim.ChaosTrial{Completed: res.Completed, Cycles: res.Cycles}
		t.Verified = res.Completed && res.ReadErrors == 0 &&
			sim.CountMismatches(res.Dist, want) == 0
		return t, nil
	})
	if err != nil {
		return err
	}
	p := points[0]
	fmt.Printf("completed  %d/%d\n", p.Completed, p.Trials)
	fmt.Printf("verified   %d/%d\n", p.Verified, p.Trials)
	fmt.Printf("mean cycles %.0f\n", p.MeanCycles)
	return nil
}

// runDegraded drives BFS/SSSP through the fault-tolerant runner: the
// run either completes (possibly via retries and relay detours) or
// terminates at the cycle budget with a structured degradation report —
// it never hangs and never panics.
func runDegraded(m *sim.Machine, g *sim.Graph, src int, ws []sim.WorkerRef, maxCycles int64, profile bool) error {
	res, err := sim.RunSSSPUnderFaults(m, g, src, ws, maxCycles)
	if err != nil {
		return err
	}
	want := g.ReferenceSSSP(src)
	mismatches := sim.CountMismatches(res.Dist, want)
	fmt.Printf("cycles               %d\n", res.Cycles)
	fmt.Printf("completed            %v\n", res.Completed)
	fmt.Printf("reference mismatches %d/%d (%d unreadable)\n", mismatches, g.N, res.ReadErrors)
	if res.RunErr != nil {
		fmt.Printf("run terminated: %v\n", res.RunErr)
	}
	if rep := m.Degradation(); rep.Degraded() {
		fmt.Print(rep.String())
	} else {
		fmt.Println("no degradation: faults did not disturb the run")
	}
	if res.Completed && mismatches == 0 && res.ReadErrors == 0 {
		fmt.Println("survived injected faults, verified against host reference: OK")
	}
	if profile {
		fmt.Println()
		m.WriteProfile(os.Stdout, 8)
	}
	return nil
}

// reportDegraded appends the degradation report to a workload whose
// runner has no fault-tolerant variant, then passes the error through.
func reportDegraded(m *sim.Machine, err error) error {
	if rep := m.Degradation(); rep.Degraded() {
		fmt.Print(rep.String())
	}
	return err
}

func runMatVec(m *sim.Machine, n, workers int, seed, maxCycles int64, profile bool) error {
	a, x := sim.RandomMatrix(n, seed)
	ws := sim.AllWorkers(m, workers)
	fmt.Printf("matvec: %dx%d matrix, %d workers\n", n, n, len(ws))
	y, res, err := sim.RunMatVec(m, a, x, ws, maxCycles)
	if err != nil {
		return err
	}
	want := sim.ReferenceMatVec(a, x)
	for i := range want {
		if y[i] != want[i] {
			return fmt.Errorf("y[%d] = %d, want %d", i, y[i], want[i])
		}
	}
	fmt.Printf("cycles %d, instret %d, %d remote ops at %.1f cyc; verified OK\n",
		res.Cycles, res.Instructions, res.RemoteOps, res.RemoteLatency)
	if profile {
		m.WriteProfile(os.Stdout, 8)
	}
	return nil
}

func runHistogram(m *sim.Machine, n, workers int, seed, maxCycles int64, profile bool) error {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int32, n)
	const bins = 16
	for i := range data {
		data[i] = int32(rng.Intn(bins))
	}
	ws := sim.AllWorkers(m, workers)
	fmt.Printf("histogram: %d samples, %d bins, %d workers\n", n, bins, len(ws))
	got, res, err := sim.RunHistogram(m, data, bins, ws, maxCycles)
	if err != nil {
		return err
	}
	want := sim.ReferenceHistogram(data, bins)
	for b := range want {
		if got[b] != want[b] {
			return fmt.Errorf("bin %d = %d, want %d", b, got[b], want[b])
		}
	}
	fmt.Printf("cycles %d, instret %d, %d remote ops at %.1f cyc; verified OK\n",
		res.Cycles, res.Instructions, res.RemoteOps, res.RemoteLatency)
	if profile {
		m.WriteProfile(os.Stdout, 8)
	}
	return nil
}

// runTransformer compiles the built-in transformer-block operator graph
// onto the machine, runs it operator by operator, and verifies every
// output tensor against the pure-Go reference executors.
func runTransformer(m *sim.Machine, workers int, maxCycles int64, profile bool) error {
	g := wl.TransformerBlock(0, 0, 0)
	fmt.Printf("operator graph %q: %d ops, %d workers/op, %s placement\n",
		g.Name, len(g.Ops), workers, placementName())
	outputs, rep, err := wl.Run(m, g, wl.Options{
		Placement:    placement,
		WorkersPerOp: workers,
		OpBudget:     maxCycles,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if !rep.Completed {
		return fmt.Errorf("graph failed at op %q", rep.FailedOp)
	}
	want, err := wl.Reference(g)
	if err != nil {
		return err
	}
	if bad := wl.CompareOutputs(outputs, want); len(bad) > 0 {
		return fmt.Errorf("ops diverged from the host reference: %v", bad)
	}
	fmt.Println("verified against host reference: OK")
	if profile {
		fmt.Println()
		m.WriteProfile(os.Stdout, 8)
	}
	return nil
}

func placementName() string {
	if placement == "" {
		return "rowmajor"
	}
	return placement
}
