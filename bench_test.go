// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark both measures the cost of the analysis and
// reports the reproduced headline values via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment harness (the
// numbers land in bench_output.txt; EXPERIMENTS.md maps them to the
// paper's claims).
package waferscale

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/chipio"
	"waferscale/internal/clock"
	"waferscale/internal/core"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/jtag"
	"waferscale/internal/noc"
	"waferscale/internal/noc/analytical"
	"waferscale/internal/pdn"
	"waferscale/internal/sim"
	"waferscale/internal/substrate"
	"waferscale/internal/workload"
)

// BenchmarkTable1Spec regenerates Table I from the architectural
// derivations.
func BenchmarkTable1Spec(b *testing.B) {
	d := core.NewDesign()
	var rows []core.SpecRow
	for i := 0; i < b.N; i++ {
		rows = d.Spec()
	}
	_ = rows
	c := d.Cfg
	b.ReportMetric(float64(c.TotalCores()), "cores")
	b.ReportMetric(c.ComputeThroughputOPS()/1e12, "TOPS")
	b.ReportMetric(c.SharedMemBandwidth()/1e12, "sharedTBps")
	b.ReportMetric(c.NetworkBandwidth()/1e12, "netTBps")
	b.ReportMetric(c.PeakWaferCurrentA(), "edgeA")
	b.ReportMetric(c.PeakWaferPowerW(), "peakW")
}

// BenchmarkFig2DroopMap solves the 32x32 PDN at peak draw: 2.5 V at the
// edge drooping to ~1.4 V at the center (paper Fig. 2).
func BenchmarkFig2DroopMap(b *testing.B) {
	d := core.NewDesign()
	cfg := pdn.DefaultConfig(d.Cfg.Grid(), d.TileCurrentA())
	var min float64
	for i := 0; i < b.N; i++ {
		sol, err := pdn.Solve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		min, _ = sol.MinVolt()
	}
	b.ReportMetric(min, "centerV")
	b.ReportMetric(2.5, "edgeV")
}

// pdnBenchConfig is the shared 70x70 scale-up solve the serial/parallel
// benchmark pair times — large enough that the red-black sweeps
// dominate setup cost.
func pdnBenchConfig() pdn.Config {
	d := core.NewDesign()
	cfg := pdn.DefaultConfig(geom.NewGrid(70, 70), d.TileCurrentA())
	return cfg
}

// BenchmarkPDNSolveSerial is the single-goroutine baseline for the
// red-black SOR solver on a 70x70 array.
func BenchmarkPDNSolveSerial(b *testing.B) {
	cfg := pdnBenchConfig()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := pdn.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDNSolveParallel is the same solve on the GOMAXPROCS row-
// chunked pool. The red-black ordering makes the result bit-identical
// to the serial baseline; compare ns/op against BenchmarkPDNSolveSerial
// for the speedup (~2x or better on >= 4 cores; no speedup is possible
// on a single-core host).
func BenchmarkPDNSolveParallel(b *testing.B) {
	cfg := pdnBenchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := pdn.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec3PowerStrategies compares edge-LDO, edge-buck and TWV
// delivery (paper Section III).
func BenchmarkSec3PowerStrategies(b *testing.B) {
	in := pdn.DefaultStrategyInput(geom.NewGrid(32, 32), 0.350, 1.21)
	var results []pdn.StrategyResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = pdn.Compare(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Strategy {
		case pdn.StrategyEdgeLDO:
			b.ReportMetric(r.WaferCurrentA, "ldoA")
			b.ReportMetric(r.AreaOverheadPct, "ldoArea%")
		case pdn.StrategyEdgeBuck:
			b.ReportMetric(r.WaferCurrentA, "buckA")
			b.ReportMetric(r.AreaOverheadPct, "buckArea%")
		}
	}
}

// BenchmarkFig3ClockSelection exercises the per-tile selection FSM:
// cycles to lock onto the first toggling input at the default toggle
// count of 16 (paper Fig. 3).
func BenchmarkFig3ClockSelection(b *testing.B) {
	locked := 0
	for i := 0; i < b.N; i++ {
		s := clock.NewSelector()
		s.SetMode(clock.ModeAuto)
		level := false
		for !s.Locked() {
			level = !level
			s.Step([4]bool{level, false, false, false})
		}
		locked++
	}
	b.ReportMetric(16, "togglesToLock")
}

// BenchmarkFig4ClockForwarding runs the clock setup simulation on the
// paper's 8x8/6-fault scenario (one boxed-in tile stays unclocked) and
// on the full 32x32 wafer.
func BenchmarkFig4ClockForwarding(b *testing.B) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	for _, c := range []geom.Coord{
		geom.C(4, 5), geom.C(3, 4), geom.C(5, 4), geom.C(4, 3),
		geom.C(0, 1), geom.C(1, 2),
	} {
		fm.MarkFaulty(c)
	}
	cfg := clock.SetupConfig{Generators: []geom.Coord{geom.C(0, 4)}, ToggleCount: 16, HopLatency: 1}
	var starved int
	for i := 0; i < b.N; i++ {
		rep, err := clock.AnalyzeResiliency(fm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		starved = len(rep.UnreachedTiles)
	}
	b.ReportMetric(float64(fm.Count()), "faults")
	b.ReportMetric(float64(starved), "starvedTiles")
}

// BenchmarkFig5IOYield computes the Section V yield headline: 81.46% ->
// 99.998% chiplet bonding yield; 380 -> ~0 expected faulty chiplets.
func BenchmarkFig5IOYield(b *testing.B) {
	var cmp chipio.YieldComparison
	for i := 0; i < b.N; i++ {
		cmp = chipio.CompareRedundancy(0.9999, 2048, 2048)
	}
	b.ReportMetric(cmp.SingleChipletYield*100, "yield1pillar%")
	b.ReportMetric(cmp.DualChipletYield*100, "yield2pillar%")
	b.ReportMetric(cmp.SingleExpectedBad, "bad1pillar")
	b.ReportMetric(cmp.DualExpectedBad, "bad2pillar")
	b.ReportMetric(chipio.DefaultIOCell().EnergyPerBitJ(500)*1e12, "pJperBit")
}

// BenchmarkFig6DisconnectedPairs is the paper's Fig. 6 Monte Carlo: %
// of source-destination pairs disconnected at 5 faulty chiplets, one
// versus two DoR networks, on the full 32x32 array.
func BenchmarkFig6DisconnectedPairs(b *testing.B) {
	grid := geom.NewGrid(32, 32)
	var pts []noc.Fig6Point
	var err error
	for i := 0; i < b.N; i++ {
		if pts, err = noc.Fig6SweepCtx(context.Background(), grid, []int{5}, 8, 2021, noc.Fig6Opts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].PctSingle.Mean, "disc1net%@5")
	b.ReportMetric(pts[0].PctDual.Mean, "disc2net%@5")
}

// BenchmarkFig6Trial times one Fig. 6 trial on the full 32x32 array —
// one analyzer Reset on a seeded fault map plus one AllPairs — for the
// prefix-sum mesh Analyzer and for TopoAnalyzer on every topology.
// Comparing prefixsum against mesh measures what the mesh-only fast
// path buys over the topology-generic analyzer: nothing at a few
// faults, where TopoAnalyzer's per-source BFS is short, and more with
// every fault past the crossover between 5 and 10; faults=20 sits in
// the default nocmc sweep (1..19). The chiplet rows time
// the chiplet-granularity trial — a seeded draw of that many faulty
// chiplets, a masked TopoAnalyzer Reset and AllPairs — as b.N trials
// of one serial sweep, since its scratch is internal to the sweep.
func BenchmarkFig6Trial(b *testing.B) {
	grid := geom.NewGrid(32, 32)
	for _, analyzer := range append([]string{"prefixsum"}, noc.TopologyNames()...) {
		for _, faults := range []int{5, 10, 20} {
			b.Run(fmt.Sprintf("%s/faults=%d", analyzer, faults), func(b *testing.B) {
				fm := fault.Random(grid, faults, rand.New(rand.NewSource(2021)))
				var st noc.PairStats
				if analyzer == "prefixsum" {
					var a noc.Analyzer
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a.Reset(fm)
						st = a.AllPairs()
					}
				} else {
					topo, err := noc.NewTopology(analyzer, grid)
					if err != nil {
						b.Fatal(err)
					}
					var a noc.TopoAnalyzer
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a.Reset(topo, fm)
						st = a.AllPairs()
					}
				}
				b.ReportMetric(st.PctSingle(), "disc1net%")
				b.ReportMetric(st.PctDual(), "disc2net%")
			})
		}
	}
	for _, chiplets := range []int{5, 10} {
		b.Run(fmt.Sprintf("chiplet/faults=%d", chiplets), func(b *testing.B) {
			b.ReportAllocs()
			pts, err := noc.ChipletFig6SweepCtx(context.Background(), grid, []int{chiplets}, b.N, 2021, noc.Fig6Opts{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pts[0].PctSingle.Mean, "disc1net%")
			b.ReportMetric(pts[0].PctDual.Mean, "disc2net%")
		})
	}
}

// BenchmarkFig7PacketSim drives request/response traffic through the
// dual-network cycle simulator (paper Fig. 7: requests on one network,
// responses on the complement over the same tiles).
func BenchmarkFig7PacketSim(b *testing.B) {
	fm := fault.NewMap(geom.NewGrid(16, 16))
	var avgLat float64
	for i := 0; i < b.N; i++ {
		// Seeded per iteration: every iteration simulates identical
		// traffic, so the reported metric does not depend on b.N.
		rng := rand.New(rand.NewSource(7))
		s, err := noc.NewSim(fm, noc.DefaultSimConfig())
		if err != nil {
			b.Fatal(err)
		}
		s.OnDeliver = func(p noc.Packet) {
			if p.Kind == noc.Request {
				s.Inject(p.Net.Complement(), p.Dst, p.Src, noc.Response, p.Tag, p.Payload)
			}
		}
		for j := 0; j < 512; j++ {
			src := geom.C(rng.Intn(16), rng.Intn(16))
			dst := geom.C(rng.Intn(16), rng.Intn(16))
			s.Inject(noc.Network(j%2), src, dst, noc.Request, uint32(j), 0)
			s.Step()
		}
		if err := s.RunUntilDrained(100000); err != nil {
			b.Fatal(err)
		}
		avgLat = s.Stats().AvgLatency()
	}
	b.ReportMetric(avgLat, "avgLatencyCyc")
}

// BenchmarkFig8PadRing builds the compute chiplet's pad ring with probe
// pads and the two-set I/O columns (paper Figs. 5 and 8) and evaluates
// the single-layer fallback (Section VIII).
func BenchmarkFig8PadRing(b *testing.B) {
	cfg := chipio.RingConfig{
		DieWidthMM: 3.15, DieHeightMM: 2.4,
		SignalIOs: 2020, EssentialFrac: 0.55,
		ProbePads: 40, PillarsPerPad: 2,
	}
	var lossPct float64
	for i := 0; i < b.N; i++ {
		ring, err := chipio.BuildPadRing(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lossPct = ring.SingleLayerFallback(5, 2).CapacityLossPct
	}
	b.ReportMetric(lossPct, "fallbackLoss%")
}

// BenchmarkFig9TileChain measures the broadcast-mode speedup with the
// bit-accurate JTAG model (paper Fig. 9: 14 DAPs -> 1 effective DAP).
func BenchmarkFig9TileChain(b *testing.B) {
	program := make([]uint32, 32)
	for i := range program {
		program[i] = uint32(i)
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		tile := jtag.NewTileChain(14, 1)
		tile.Broadcast = true
		ctl := jtag.NewController(tile)
		ctl.Reset()
		if err := ctl.WriteWords(0, program); err != nil {
			b.Fatal(err)
		}
		cycles = ctl.Cycles
	}
	b.ReportMetric(float64(cycles), "TCKbroadcast")
	b.ReportMetric(jtag.BroadcastSpeedup(14, jtag.DefaultLoadModel()), "broadcastSpeedup")
}

// BenchmarkFig10ProgressiveUnroll localizes a faulty chiplet in a
// 32-tile row chain by progressive unrolling (paper Fig. 10).
func BenchmarkFig10ProgressiveUnroll(b *testing.B) {
	var found int
	for i := 0; i < b.N; i++ {
		w := jtag.NewWaferChain(32, 2)
		w.Tiles[17].MarkFaulty()
		res, err := jtag.ProgressiveUnroll(w)
		if err != nil {
			b.Fatal(err)
		}
		found = res.FaultyTile
	}
	b.ReportMetric(float64(found), "faultLocalizedAt")
}

// BenchmarkSec7LoadTime computes the Section VII headline: full-wafer
// memory load of ~2.5 h on one chain versus ~5 min on 32 row chains.
func BenchmarkSec7LoadTime(b *testing.B) {
	var rep jtag.Sec7Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = jtag.Sec7Headline(1024, 32, 1536<<10, 14)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.SingleChain.Hours(), "singleChainH")
	b.ReportMetric(rep.MultiChain.Minutes(), "multiChainMin")
	b.ReportMetric(rep.Speedup, "chainSpeedup")
	b.ReportMetric(rep.BroadcastSpeedup, "broadcast14x")
}

// BenchmarkSec8SubstrateRoute routes a full tile pair's inter-chiplet
// nets jog-free and DRCs them (paper Section VIII).
func BenchmarkSec8SubstrateRoute(b *testing.B) {
	rules := substrate.DefaultRules()
	reticle := substrate.DefaultReticle()
	tile := substrate.DefaultTileGeometry(geom.Pt(0, 0))
	var routed, violations int
	for i := 0; i < b.N; i++ {
		r, err := substrate.NewRouter(rules, reticle)
		if err != nil {
			b.Fatal(err)
		}
		mem, err := tile.MemoryLinkNets("mem", 250)
		if err != nil {
			b.Fatal(err)
		}
		mesh, err := tile.MeshLinkNets("mesh", 240, tile.Origin.X+tile.ComputeW+tile.GapUM)
		if err != nil {
			b.Fatal(err)
		}
		var errs []error
		routed, errs = r.RouteAll(append(mem, mesh...))
		if len(errs) > 0 {
			b.Fatal(errs[0])
		}
		violations = len(substrate.DRC(r.Segments(), rules, reticle))
	}
	b.ReportMetric(float64(routed), "netsRouted")
	b.ReportMetric(float64(violations), "drcViolations")
}

// BenchmarkE1GraphWorkloads runs the BFS validation workload as a
// WS-ISA program on a 4x4-tile machine (the paper's FPGA-emulation
// stand-in) and verifies against the host reference.
func BenchmarkE1GraphWorkloads(b *testing.B) {
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY, cfg.CoresPerTile, cfg.JTAGChains = 4, 4, 4, 4
	g := sim.GridGraph(8, 8).Unweighted()
	want := g.ReferenceSSSP(0)
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunBFS(m, g, 0, sim.AllWorkers(m, 16), 50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				b.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
			}
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "machineCycles")
}

// BenchmarkWaferBFS runs BFS at the paper's scale: the full 32×32-tile,
// 14-core-per-tile machine (14,336 cores) built anew each op, wsim's
// default 64-vertex random graph and 16 workers, verified against the
// host reference. Only a few tiles hold a worker, so the op times the
// machine's cost of a mostly idle wafer: building it and stepping the
// NoC plus the few live tiles each cycle.
func BenchmarkWaferBFS(b *testing.B) {
	cfg, err := arch.DefaultConfig().Square(32)
	if err != nil {
		b.Fatal(err)
	}
	g := sim.RandomGraph(64, 192, 1, 2021).Unweighted()
	want := g.ReferenceSSSP(0)
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunSSSP(m, g, 0, sim.AllWorkers(m, 16), 50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if n := sim.CountMismatches(res.Dist, want); n > 0 {
			b.Fatalf("%d distances diverge from the host reference", n)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "machineCycles")
}

// BenchmarkAblationOddEven compares the future-work odd-even adaptive
// routing against the prototype's dual-DoR scheme (paper footnote 4).
func BenchmarkAblationOddEven(b *testing.B) {
	grid := geom.NewGrid(16, 16)
	rng := rand.New(rand.NewSource(3))
	fm := fault.Random(grid, 8, rng)
	var dorPct, oePct float64
	for i := 0; i < b.N; i++ {
		dorPct = noc.NewAnalyzer(fm).AllPairs().PctDual()
		oePct = noc.OddEvenAllPairs(fm).Pct()
	}
	b.ReportMetric(dorPct, "dualDoRdisc%")
	b.ReportMetric(oePct, "oddEvenDisc%")
}

// BenchmarkAblationDetour quantifies the kernel's intermediate-tile
// workaround: residual unreachable pairs after relays.
func BenchmarkAblationDetour(b *testing.B) {
	grid := geom.NewGrid(16, 16)
	fm := fault.Random(grid, 10, rand.New(rand.NewSource(11)))
	var direct, detoured, unreachable int
	for i := 0; i < b.N; i++ {
		k := noc.NewKernel(noc.MeshTopology(grid), fm)
		direct, detoured, unreachable = k.PlanAll()
	}
	total := float64(direct + detoured + unreachable)
	b.ReportMetric(100*float64(detoured)/total, "detoured%")
	b.ReportMetric(100*float64(unreachable)/total, "unreachable%")
}

// BenchmarkAblationTWV evaluates the not-yet-ready through-wafer-via
// delivery the paper defers (Section III): droop with interior supply
// points versus edge-only.
func BenchmarkAblationTWV(b *testing.B) {
	d := core.NewDesign()
	var edgeMin, twvMin float64
	for i := 0; i < b.N; i++ {
		edge, err := pdn.Evaluate(pdn.StrategyEdgeLDO, pdn.DefaultStrategyInput(d.Cfg.Grid(), 0.350, 1.21))
		if err != nil {
			b.Fatal(err)
		}
		twv, err := pdn.Evaluate(pdn.StrategyTWV, pdn.DefaultStrategyInput(d.Cfg.Grid(), 0.350, 1.21))
		if err != nil {
			b.Fatal(err)
		}
		edgeMin, twvMin = edge.MinTileVolts, twv.MinTileVolts
	}
	b.ReportMetric(edgeMin, "edgeMinV")
	b.ReportMetric(twvMin, "twvMinV")
}

// BenchmarkSec3LDOTransient validates the 20 nF decap against the
// paper's worst-case 200 mA load step by time-domain simulation.
func BenchmarkSec3LDOTransient(b *testing.B) {
	cfg := pdn.DefaultTransient()
	var res *pdn.TransientResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pdn.SimulateTransient(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UndershootV*1000, "undershootMV")
	b.ReportMetric(boolMetric(res.InWindow), "inWindow")
}

// BenchmarkSec4JitterAccumulation quantifies footnote 3: accumulated
// forwarding jitter versus the per-hop budget that async FIFOs reduce
// the problem to.
func BenchmarkSec4JitterAccumulation(b *testing.B) {
	j := clock.DefaultJitter()
	var rms float64
	for i := 0; i < b.N; i++ {
		// Seeded per iteration so the reported RMS does not depend on b.N.
		rms = j.SimulateRMS(62, 500, rand.New(rand.NewSource(1)))
	}
	b.ReportMetric(rms, "rms62hopsPS")
	b.ReportMetric(float64(j.MaxSafeHopsSynchronous(300e6, 0.10)), "syncHopLimit")
}

// BenchmarkSec7AKGDScreening runs the pre-bond probe test over a batch
// of chiplets and reports the with/without-KGD assembly outcome.
func BenchmarkSec7AKGDScreening(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var res jtag.KGDResult
	for i := 0; i < b.N; i++ {
		batch := jtag.RandomBatch(64, 4, 0.9, rng)
		res, _ = jtag.ScreenChiplets(batch)
		if res.FalseAccepts+res.FalseRejects != 0 {
			b.Fatalf("screening errors: %+v", res)
		}
	}
	out := jtag.CompareKGD(2048, 0.90, 0.99998)
	b.ReportMetric(out.FaultyWithoutKGD, "badSitesNoKGD")
	b.ReportMetric(out.FaultyWithKGD, "badSitesKGD")
}

// BenchmarkNoCThroughput measures the latency-throughput curve under
// uniform random traffic, one sub-benchmark per NoC topology (the
// dual-DoR mesh plus the cmesh/express/vertical link graphs), so
// BENCH_noc.json tracks every topology's engine cost side by side.
func BenchmarkNoCThroughput(b *testing.B) {
	for _, topo := range noc.TopologyNames() {
		topo := topo
		b.Run(topo, func(b *testing.B) { benchNoCThroughput(b, topo) })
	}
}

func benchNoCThroughput(b *testing.B, topology string) {
	grid := geom.NewGrid(8, 8)
	fm := fault.NewMap(grid)
	cfg := noc.DefaultThroughputConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 600
	cfg.Topology = topology
	// Probe well below every topology's bound, then at its bound.
	sat := noc.IdealSaturation(topology, grid)
	var pts []noc.ThroughputPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = noc.MeasureThroughput(fm, cfg, []float64{0.05, sat})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AvgLatency, "lowLoadLatency")
	b.ReportMetric(pts[1].DeliveredRate, "saturatedRate")
	b.ReportMetric(sat, "idealBound")
}

// BenchmarkSec8FullWaferRoute routes the complete 32x32 wafer netlist
// (~730k nets) in one pass — the scalability claim behind the paper's
// custom router.
func BenchmarkSec8FullWaferRoute(b *testing.B) {
	cfg := substrate.DefaultWaferNetlist(geom.NewGrid(32, 32))
	var routed int
	for i := 0; i < b.N; i++ {
		_, n, err := substrate.RouteWafer(cfg, substrate.DefaultRules(), substrate.DefaultReticle())
		if err != nil {
			b.Fatal(err)
		}
		routed = n
	}
	b.ReportMetric(float64(routed), "netsRouted")
}

// BenchmarkE1MatVecHistogram runs the other two workload classes the
// paper's introduction motivates (ML, data analytics) on the machine.
func BenchmarkE1MatVecHistogram(b *testing.B) {
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY, cfg.CoresPerTile, cfg.JTAGChains = 4, 4, 4, 4
	a, x := sim.RandomMatrix(16, 3)
	wantY := sim.ReferenceMatVec(a, x)
	data := make([]int32, 256)
	for i := range data {
		data[i] = int32(i % 8)
	}
	wantBins := sim.ReferenceHistogram(data, 8)
	var mvCycles, histCycles int64
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
		if err != nil {
			b.Fatal(err)
		}
		y, res, err := sim.RunMatVec(m, a, x, sim.AllWorkers(m, 8), 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for j := range wantY {
			if y[j] != wantY[j] {
				b.Fatal("matvec mismatch")
			}
		}
		mvCycles = res.Cycles

		m2, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
		if err != nil {
			b.Fatal(err)
		}
		bins, res2, err := sim.RunHistogram(m2, data, 8, sim.AllWorkers(m2, 8), 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for j := range wantBins {
			if bins[j] != wantBins[j] {
				b.Fatal("histogram mismatch")
			}
		}
		histCycles = res2.Cycles
	}
	b.ReportMetric(float64(mvCycles), "matvecCycles")
	b.ReportMetric(float64(histCycles), "histogramCycles")
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// BenchmarkChaosBFSSurvival runs the runtime analogue of the Fig. 6
// Monte Carlo: BFS on the live machine while seeded tile kills land
// mid-run, reporting the completion and verification rates the
// graceful-degradation layer sustains.
func BenchmarkChaosBFSSurvival(b *testing.B) {
	d := core.NewDesign()
	cfg := core.DefaultChaosConfig()
	cfg.Side, cfg.Workers, cfg.GraphSide = 4, 8, 6
	cfg.Trials = 2
	cfg.Kills = []int{0, 1}
	cfg.MaxCycles = 80_000
	var points []core.ChaosPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = d.RunChaos(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	healthy, killed := points[0], points[len(points)-1]
	b.ReportMetric(healthy.VerifiedRate()*100, "verified%@0kills")
	b.ReportMetric(killed.CompletedRate()*100, "completed%@1kill")
	b.ReportMetric(killed.MeanRetries, "retries@1kill")
	b.ReportMetric(killed.MeanLostKiB, "lostKiB@1kill")
}

// BenchmarkDSEArraySweep runs the scale-up sweep (conclusion:
// "developing design methods for higher-power waferscale systems").
func BenchmarkDSEArraySweep(b *testing.B) {
	d := core.NewDesign()
	var knee int
	for i := 0; i < b.N; i++ {
		pts, err := d.SweepArraySizeCtx(context.Background(), []int{8, 16, 32, 48}, core.SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		knee = 0
		for _, p := range pts {
			if p.RegulationOK {
				knee = p.Tiles
			}
		}
	}
	b.ReportMetric(float64(knee), "largestRegulatingTiles")
}

// BenchmarkAnalyticalThroughput answers the same question as
// BenchmarkNoCThroughput/mesh — the latency-throughput curve of a
// fault-free 8x8 mesh at 0.05 and at its ideal saturation bound —
// through the closed-form analytical model instead of stepping cycles.
// The model is built inside the loop, as the two-tier DSE screen builds
// one per design point, so the ns/op ratio against
// BenchmarkNoCThroughput/mesh is the screen's per-point advantage.
func BenchmarkAnalyticalThroughput(b *testing.B) {
	grid := geom.NewGrid(8, 8)
	fm := fault.NewMap(grid)
	rates := []float64{0.05, noc.IdealSaturation(noc.TopoMesh, grid)}
	var pts []noc.ThroughputPoint
	for i := 0; i < b.N; i++ {
		m, err := analytical.NewForTopology(noc.TopoMesh, fm)
		if err != nil {
			b.Fatal(err)
		}
		if pts, err = m.ThroughputCurve(context.Background(), rates); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AvgLatency, "lowLoadLatency")
	b.ReportMetric(pts[1].DeliveredRate, "saturatedRate")
}

// twoTierBenchSpace is a 105-point design grid spanning the scale-up
// question the paper's conclusion poses: how far does the fixed
// edge-supply design scale? Sides 48-64 are infeasible at every edge
// voltage the LDO tracks — the analytical screen discards them for
// microseconds, while the exhaustive baseline must still pay their
// cycle-accurate NoC probes (a side-64 mesh is 4096 tiles) to label
// every point. That asymmetry is where the two-tier speedup lives.
func twoTierBenchSpace() core.ParetoSpace {
	return core.ParetoSpace{
		Sides:   []int{8, 12, 16, 24, 48, 56, 64},
		EdgeV:   []float64{2.0, 2.25, 2.5, 2.75, 3.0},
		Pillars: []int{1, 2, 3},
	}
}

// BenchmarkParetoExhaustive evaluates the 100-point space entirely with
// the cycle-accurate engine — the baseline the two-tier run is measured
// against.
func BenchmarkParetoExhaustive(b *testing.B) {
	d := core.NewDesign()
	var frontier int
	for i := 0; i < b.N; i++ {
		run, err := d.ExploreParetoCtx(context.Background(), twoTierBenchSpace(), core.ParetoOpts{})
		if err != nil {
			b.Fatal(err)
		}
		frontier = len(run.Frontier)
	}
	b.ReportMetric(float64(frontier), "frontierPts")
}

// BenchmarkParetoTwoTier screens the same 100-point space analytically
// and verifies only the survivors cycle-accurately. The verified
// frontier is identical to the exhaustive one (asserted by
// TestTwoTierMatchesExhaustiveFrontier); ns/op against
// BenchmarkParetoExhaustive is the two-tier speedup (>= 10x budgeted).
func BenchmarkParetoTwoTier(b *testing.B) {
	d := core.NewDesign()
	var survivors int
	for i := 0; i < b.N; i++ {
		run, err := d.ExploreParetoCtx(context.Background(), twoTierBenchSpace(), core.ParetoOpts{TwoTier: true})
		if err != nil {
			b.Fatal(err)
		}
		survivors = run.Survivors
	}
	b.ReportMetric(float64(survivors), "survivors")
}

// BenchmarkWorkloadTransformerBlock compiles the built-in transformer
// operator graph (17 ops: GEMMs, attention-gather, all-reduce, MoE
// dispatch, elementwise, collectives) onto a 4x4 machine with each NoC
// topology, runs it end to end, and verifies every operator's output
// against the host reference. machineCycles is the end-to-end graph
// latency; critPathCycles is the dependency-chain lower bound.
func BenchmarkWorkloadTransformerBlock(b *testing.B) {
	g := workload.TransformerBlock(0, 0, 0)
	want, err := workload.Reference(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, topo := range noc.TopologyNames() {
		b.Run(topo, func(b *testing.B) {
			var rep *workload.WorkloadReport
			for i := 0; i < b.N; i++ {
				m, err := workload.BuildMachine(4, topo)
				if err != nil {
					b.Fatal(err)
				}
				outputs, r, err := workload.Run(m, g, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Completed {
					b.Fatalf("graph failed at op %q", r.FailedOp)
				}
				if bad := workload.CompareOutputs(outputs, want); len(bad) > 0 {
					b.Fatalf("ops diverged from reference: %v", bad)
				}
				rep = r
			}
			b.ReportMetric(float64(rep.TotalCycles), "machineCycles")
			b.ReportMetric(float64(rep.CriticalPathCycles), "critPathCycles")
			b.ReportMetric(float64(rep.RemoteOps), "remoteOps")
		})
	}
}
