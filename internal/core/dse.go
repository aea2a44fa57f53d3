package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"waferscale/internal/chipio"
	"waferscale/internal/fault"
	"waferscale/internal/jtag"
	"waferscale/internal/noc"
	"waferscale/internal/parallel"
	"waferscale/internal/pdn"
)

// Design-space exploration: the paper's concluding section points at
// "design methods for higher-power waferscale systems"; these sweeps
// quantify how the prototype's choices scale when the array grows, the
// supply voltage moves, the bonding redundancy changes, the test
// chains multiply, or denser decap technology (deep-trench capacitors,
// footnote 2) arrives.

// ArrayPoint is one array-size design point. The struct stays
// comparable (scalar fields only): the worker-invariance tests compare
// points with ==.
type ArrayPoint struct {
	Tiles        int
	Cores        int
	ThroughputT  float64 // TOPS
	EdgeCurrentA float64
	CenterVolt   float64
	RegulationOK bool
	LoadTime     time.Duration // full load with one chain per row

	// Model labels the backend that produced CenterVolt/RegulationOK
	// and the NoC metrics ("cycle" or "analytical").
	Model string
	// NoCSatRate is the fault-free NoC saturation throughput
	// (packets/tile/cycle) for this array size.
	NoCSatRate float64
	// NoCLatency is the average packet latency (cycles) at a moderate
	// fixed load (probeLoadFraction of the bisection bound).
	NoCLatency float64
}

// SweepOpts configures SweepArraySizeCtx.
type SweepOpts struct {
	// Model picks the evaluation backend ("" = cycle).
	Model EvalModel
	// Topology names the NoC link graph the per-side probes run on
	// ("" = mesh); see noc.NewTopology. Vertical needs even sides.
	Topology string
	// Progress, when set, is called once with done=0 when the sweep
	// starts and then after every completed side. Calls are serialized
	// and done is strictly increasing.
	Progress func(done, total int)
}

// SweepArraySizeCtx evaluates square arrays of the given side lengths,
// keeping the per-tile design fixed. Larger arrays droop more: at some
// size the edge-delivery scheme stops regulating — the knee this sweep
// exposes is why TWVs matter for scale-up. The sides are evaluated on
// the shared bounded pool (d.Workers goroutines, 0 = GOMAXPROCS); each
// point solves its droop map single-threaded so the sweep parallelizes
// across points, not inside them. The analytical backend replaces the SOR droop
// solve with the spectral closed form and the cycle-accurate NoC probe
// with the queueing model, labeling every point with the backend used.
func (d *Design) SweepArraySizeCtx(ctx context.Context, sides []int, opts SweepOpts) ([]ArrayPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	model, err := opts.Model.normalized()
	if err != nil {
		return nil, err
	}
	topology, err := noc.NormalizeTopology(opts.Topology)
	if err != nil {
		return nil, err
	}
	var tick func()
	if opts.Progress != nil {
		p := opts.Progress
		tick = progressTicker(func(_ string, done, total int) { p(done, total) }, "sweep", len(sides))
	}
	return parallel.Map(ctx, len(sides), d.Workers, func(i int) (ArrayPoint, error) {
		n := sides[i]
		cfg, err := d.Cfg.Square(n)
		if err != nil {
			return ArrayPoint{}, fmt.Errorf("core: side %d: %w", n, err)
		}
		minV, regOK, err := d.droopAt(cfg, model)
		if err != nil {
			return ArrayPoint{}, err
		}
		probe, err := probeNoC(ctx, fault.NewMap(cfg.Grid()), model, topology)
		if err != nil {
			return ArrayPoint{}, fmt.Errorf("core: side %d noc probe: %w", n, err)
		}
		perTileBytes := cfg.CoresPerTile*cfg.PrivateMemPerCore + cfg.SharedBanksPerTile*cfg.BankBytes
		lt, err := jtag.DefaultLoadModel().LoadTime(cfg.Tiles(), cfg.JTAGChains, perTileBytes/4, false)
		if err != nil {
			return ArrayPoint{}, err
		}
		pt := ArrayPoint{
			Tiles:        cfg.Tiles(),
			Cores:        cfg.TotalCores(),
			ThroughputT:  cfg.ComputeThroughputOPS() / 1e12,
			EdgeCurrentA: cfg.PeakWaferCurrentA(),
			CenterVolt:   minV,
			RegulationOK: regOK,
			LoadTime:     lt,
			Model:        string(model),
			NoCSatRate:   probe.satRate,
			NoCLatency:   probe.latency,
		}
		if tick != nil {
			tick()
		}
		return pt, nil
	})
}

// RedundancyPoint is one pillar-redundancy design point.
type RedundancyPoint struct {
	PillarsPerPad int
	ChipletYield  float64
	ExpectedBad   float64
	PadHeightUM   float64 // taller pads cost edge density
}

// SweepPillarRedundancy evaluates 1..maxPillars pillars per pad.
func (d *Design) SweepPillarRedundancy(maxPillars int) []RedundancyPoint {
	var out []RedundancyPoint
	for p := 1; p <= maxPillars; p++ {
		b := chipio.BondConfig{
			PillarYield:    d.PillarYield,
			PillarsPerPad:  p,
			PadsPerChiplet: d.Cfg.Compute.NumIOs,
		}
		out = append(out, RedundancyPoint{
			PillarsPerPad: p,
			ChipletYield:  b.ChipletYield(),
			ExpectedBad:   b.ExpectedFaultyChiplets(d.Cfg.Chiplets()),
			PadHeightUM:   chipio.PadWidthUM + float64(p-1)*chipio.PillarPitchUM,
		})
	}
	return out
}

// ChainPoint is one JTAG-chain-count design point.
type ChainPoint struct {
	Chains   int
	LoadTime time.Duration
}

// SweepChains evaluates load time versus chain count.
func (d *Design) SweepChains(chainCounts []int) ([]ChainPoint, error) {
	perTileBytes := d.Cfg.CoresPerTile*d.Cfg.PrivateMemPerCore + d.Cfg.SharedBanksPerTile*d.Cfg.BankBytes
	m := jtag.DefaultLoadModel()
	var out []ChainPoint
	for _, c := range chainCounts {
		lt, err := m.LoadTime(d.Cfg.Tiles(), c, perTileBytes/4, false)
		if err != nil {
			return nil, err
		}
		out = append(out, ChainPoint{Chains: c, LoadTime: lt})
	}
	return out, nil
}

// DecapPoint compares decap technologies (footnote 2 ablation).
type DecapPoint struct {
	Tech         string
	DensityNFMM2 float64
	AreaMM2      float64 // area for the 20 nF per-tile budget
	TileAreaPct  float64
}

// SweepDecapTech compares the prototype's planar MOS decap against the
// under-development deep-trench capacitors in the Si-IF substrate.
func (d *Design) SweepDecapTech() []DecapPoint {
	tileArea := d.Cfg.TileWidthMM() * d.Cfg.TileHeightMM()
	budget := pdn.RequiredDecapF(0.200, 10e-9, 0.1) // the paper's 20 nF
	techs := []struct {
		name    string
		density float64 // F per mm^2
	}{
		{"planar MOS (prototype)", 20e-9 / (tileArea * 0.35)},
		{"deep-trench (Si-IF substrate)", 10 * 20e-9 / (tileArea * 0.35)},
	}
	var out []DecapPoint
	for _, t := range techs {
		area := budget / t.density
		out = append(out, DecapPoint{
			Tech:         t.name,
			DensityNFMM2: t.density * 1e9,
			AreaMM2:      area,
			TileAreaPct:  100 * area / tileArea,
		})
	}
	return out
}

// FormatArraySweep renders an array-size sweep.
func FormatArraySweep(points []ArrayPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s %8s %10s %10s %7s %9s %9s %12s\n",
		"tiles", "cores", "TOPS", "edge A", "center V", "reg ok", "noc sat", "noc lat", "load time")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %8d %8.2f %10.1f %10.3f %7v %9.4f %9.1f %12v\n",
			p.Tiles, p.Cores, p.ThroughputT, p.EdgeCurrentA, p.CenterVolt,
			p.RegulationOK, p.NoCSatRate, p.NoCLatency, p.LoadTime.Round(time.Second))
	}
	return b.String()
}
