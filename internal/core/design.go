// Package core is the top of the waferscale design flow: it ties the
// architecture (internal/arch), power delivery (internal/pdn), clock
// distribution (internal/clock), I/O and yield (internal/chipio),
// network (internal/noc), test infrastructure (internal/jtag) and
// substrate (internal/substrate) models together into a single Design
// that can be analyzed, reported on (Table I), and swept for design-
// space exploration.
package core

import (
	"context"
	"fmt"
	"time"

	"waferscale/internal/arch"
	"waferscale/internal/chipio"
	"waferscale/internal/clock"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/jtag"
	"waferscale/internal/noc"
	"waferscale/internal/pdn"
	"waferscale/internal/substrate"
)

// Design is one waferscale processor design point.
type Design struct {
	Cfg arch.Config

	// Workers bounds the host-side goroutine pool every analysis in
	// this package fans out on (PDN sweeps, Monte Carlo trials, DSE
	// points, report sections). 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int

	// PillarYield is the per-copper-pillar bond yield (paper: >99.99%).
	PillarYield float64
	// PillarsPerPad is the bonding redundancy (prototype: 2).
	PillarsPerPad int
	// SheetOhm is the PDN plane-pair sheet resistance.
	SheetOhm float64
	// LDO is the on-chiplet regulator envelope.
	LDO pdn.LDO
	// Rules are the substrate technology rules.
	Rules substrate.TechRules
	// Reticle is the step-and-repeat plan.
	Reticle substrate.ReticlePlan
}

// NewDesign returns the paper's prototype design point.
func NewDesign() *Design {
	return &Design{
		Cfg:           arch.DefaultConfig(),
		PillarYield:   0.9999,
		PillarsPerPad: 2,
		SheetOhm:      pdn.DefaultSheetResistanceOhm,
		LDO:           pdn.DefaultLDO(),
		Rules:         substrate.DefaultRules(),
		Reticle:       substrate.DefaultReticle(),
	}
}

// Validate checks the whole design point.
func (d *Design) Validate() error {
	if err := d.Cfg.Validate(); err != nil {
		return fmt.Errorf("core: architecture: %w", err)
	}
	if err := d.LDO.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := d.Rules.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	bond := chipio.BondConfig{
		PillarYield:    d.PillarYield,
		PillarsPerPad:  d.PillarsPerPad,
		PadsPerChiplet: d.Cfg.Compute.NumIOs,
	}
	if err := bond.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// TileCurrentA returns the per-tile peak supply current.
func (d *Design) TileCurrentA() float64 {
	return d.Cfg.PeakTilePowerW / d.Cfg.FastCornerVolts
}

// PowerReport is the Section III / Fig. 2 analysis result.
type PowerReport struct {
	Solution       *pdn.Solution
	MinVolt        float64
	MinAt          geom.Coord
	ResistiveLossW float64
	Regulation     pdn.RegulationReport
	EdgePowerW     float64 // total power drawn from the edge connectors
	Strategies     []pdn.StrategyResult
}

// AnalyzePower solves the droop map, checks LDO regulation across it
// and compares the delivery strategies.
func (d *Design) AnalyzePower() (*PowerReport, error) {
	cfg := pdn.Config{
		Grid:         d.Cfg.Grid(),
		EdgeVolts:    d.Cfg.EdgeSupplyVolts,
		TileCurrentA: d.TileCurrentA(),
		SheetOhm:     d.SheetOhm,
		Workers:      d.Workers,
	}
	sol, err := pdn.Solve(cfg)
	if err != nil {
		return nil, err
	}
	min, at := sol.MinVolt()
	rep := &PowerReport{
		Solution:       sol,
		MinVolt:        min,
		MinAt:          at,
		ResistiveLossW: sol.ResistiveLossW(),
		Regulation:     pdn.CheckRegulation(sol, d.LDO, d.Cfg.PeakTilePowerW),
	}
	rep.EdgePowerW = d.Cfg.PeakWaferPowerW()
	in := pdn.DefaultStrategyInput(d.Cfg.Grid(), d.Cfg.PeakTilePowerW, d.Cfg.FastCornerVolts)
	in.SheetOhm = d.SheetOhm
	in.LDO = d.LDO
	rep.Strategies, err = pdn.Compare(in)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// ClockReport is the Section IV / Fig. 4 analysis result.
type ClockReport struct {
	Resiliency       clock.ResiliencyReport
	GeneratorChoices int // healthy edge tiles able to generate
	PassiveCDNMaxHz  float64
	NaiveKillDepth   int     // hops until a naively forwarded 5% DCD clock dies
	InvertedWorst    float64 // worst duty error with per-hop inversion
	DCCWorst         float64 // worst duty error with inversion + DCC
}

// AnalyzeClock runs clock setup on the fault map and evaluates the
// duty-cycle distortion countermeasures.
func (d *Design) AnalyzeClock(fm *fault.Map) (*ClockReport, error) {
	setup := clock.DefaultSetup(fm.Grid())
	// Pick the first healthy edge tile as generator if the default is
	// faulty (no single point of failure, Section IV).
	if fm.Faulty(setup.Generators[0]) {
		found := false
		for _, c := range fm.Grid().EdgeCoords() {
			if fm.Healthy(c) {
				setup.Generators = []geom.Coord{c}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: no healthy edge tile can generate the clock")
		}
	}
	res, err := clock.AnalyzeResiliency(fm, setup)
	if err != nil {
		return nil, err
	}
	candidates := 0
	for _, c := range fm.Grid().EdgeCoords() {
		if fm.Healthy(c) {
			candidates++
		}
	}
	maxHops := fm.Grid().W + fm.Grid().H
	naive := clock.DCDConfig{PerHopDistortion: 0.05, MinPulse: 0.1}
	inverted := clock.DCDConfig{PerHopDistortion: 0.05, InvertPerHop: true, MinPulse: 0.1}
	dcc := clock.DefaultDCD(0.05)
	return &ClockReport{
		Resiliency:       res,
		GeneratorChoices: candidates,
		PassiveCDNMaxHz:  clock.DefaultPassiveCDN().MaxFrequencyHz(),
		NaiveKillDepth:   naive.KillDepth(maxHops),
		InvertedWorst:    inverted.WorstDuty(maxHops),
		DCCWorst:         dcc.WorstDuty(maxHops),
	}, nil
}

// YieldReport is the Section V analysis result.
type YieldReport struct {
	Comparison       chipio.YieldComparison
	TileLossProb     float64
	ExpectedBadTiles float64
	EnergyPerBitPJ   float64
	IOAreaMM2        float64 // compute-chiplet I/O area
}

// AnalyzeYield computes the bonding-yield and I/O figures.
func (d *Design) AnalyzeYield() (*YieldReport, error) {
	compute := chipio.BondConfig{
		PillarYield:    d.PillarYield,
		PillarsPerPad:  d.PillarsPerPad,
		PadsPerChiplet: d.Cfg.Compute.NumIOs,
	}
	memory := compute
	memory.PadsPerChiplet = d.Cfg.Memory.NumIOs
	ring, err := chipio.BuildPadRing(chipio.RingConfig{
		DieWidthMM:    d.Cfg.Compute.WidthMM,
		DieHeightMM:   d.Cfg.Compute.HeightMM,
		SignalIOs:     d.Cfg.Compute.NumIOs,
		EssentialFrac: 0.55,
		ProbePads:     d.Cfg.Compute.ProbePads,
		PillarsPerPad: d.PillarsPerPad,
	})
	if err != nil {
		return nil, err
	}
	cell := chipio.DefaultIOCell()
	tileLoss := chipio.TileLossProbability(compute, memory)
	return &YieldReport{
		Comparison:       chipio.CompareRedundancy(d.PillarYield, d.Cfg.Compute.NumIOs, d.Cfg.Chiplets()),
		TileLossProb:     tileLoss,
		ExpectedBadTiles: float64(d.Cfg.Tiles()) * tileLoss,
		EnergyPerBitPJ:   cell.EnergyPerBitJ(500) * 1e12,
		IOAreaMM2:        ring.TotalIOAreaMM2(cell),
	}, nil
}

// NetworkReport is the Section VI / Fig. 6 analysis result.
type NetworkReport struct {
	Fig6      []noc.Fig6Point
	Bandwidth noc.SystemBandwidth
}

// AnalyzeNetwork runs the Fig. 6 Monte Carlo at the given fault counts.
// The sweep stops at ctx's cancellation; progress, when non-nil, is
// the sweep's per-trial feed (noc.Fig6Opts.Progress).
func (d *Design) AnalyzeNetwork(ctx context.Context, faultCounts []int, trials int, seed int64, progress func(done, total int)) (*NetworkReport, error) {
	fig6, err := noc.Fig6SweepCtx(ctx, d.Cfg.Grid(), faultCounts, trials, seed, noc.Fig6Opts{Workers: d.Workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	link := noc.DefaultLinkSpec(d.Cfg.TileWidthMM())
	link.ClockHz = d.Cfg.FreqHz
	link.PayloadBits = d.Cfg.PayloadBitsPerBus
	link.PacketBits = d.Cfg.PacketWidthBits
	link.Buses = d.Cfg.BusesPerTileSide
	return &NetworkReport{Fig6: fig6, Bandwidth: noc.ComputeBandwidth(d.Cfg.Grid(), link)}, nil
}

// TestReport is the Section VII analysis result.
type TestReport struct {
	SingleChainLoad  time.Duration
	MultiChainLoad   time.Duration
	ChainSpeedup     float64
	BroadcastSpeedup float64
}

// AnalyzeTest computes the load-time headline numbers.
func (d *Design) AnalyzeTest() (*TestReport, error) {
	perTileBytes := d.Cfg.CoresPerTile*d.Cfg.PrivateMemPerCore +
		d.Cfg.SharedBanksPerTile*d.Cfg.BankBytes
	rep, err := jtag.Sec7Headline(d.Cfg.Tiles(), d.Cfg.JTAGChains, perTileBytes, d.Cfg.CoresPerTile)
	if err != nil {
		return nil, err
	}
	return &TestReport{
		SingleChainLoad:  rep.SingleChain,
		MultiChainLoad:   rep.MultiChain,
		ChainSpeedup:     rep.Speedup,
		BroadcastSpeedup: rep.BroadcastSpeedup,
	}, nil
}

// SubstrateReport is the Section VIII analysis result.
type SubstrateReport struct {
	ReticlesX, ReticlesY int
	RoutedNets           int
	SeamCrossings        int
	DRCViolations        int
	FallbackAlive        bool
	FallbackCapacityLoss float64
}

// AnalyzeSubstrate routes a representative tile pair (memory links plus
// one inter-tile mesh link) and checks DRC and the single-layer
// fallback.
func (d *Design) AnalyzeSubstrate() (*SubstrateReport, error) {
	r, err := substrate.NewRouter(d.Rules, d.Reticle)
	if err != nil {
		return nil, err
	}
	tile := substrate.DefaultTileGeometry(geom.Pt(0, 0))
	mem, err := tile.MemoryLinkNets("mem", 250)
	if err != nil {
		return nil, err
	}
	mesh, err := tile.MeshLinkNets("mesh", 240, tile.Origin.X+tile.ComputeW+tile.GapUM)
	if err != nil {
		return nil, err
	}
	routed, errs := r.RouteAll(append(mem, mesh...))
	if len(errs) > 0 {
		return nil, fmt.Errorf("core: substrate routing failed: %v", errs[0])
	}
	viol := substrate.DRC(r.Segments(), d.Rules, d.Reticle)
	nx, ny := d.Reticle.ReticlesFor(d.Cfg.TilesX, d.Cfg.TilesY)

	ring, err := chipio.BuildPadRing(chipio.RingConfig{
		DieWidthMM:    d.Cfg.Compute.WidthMM,
		DieHeightMM:   d.Cfg.Compute.HeightMM,
		SignalIOs:     d.Cfg.Compute.NumIOs,
		EssentialFrac: 0.55,
		ProbePads:     d.Cfg.Compute.ProbePads,
		PillarsPerPad: d.PillarsPerPad,
	})
	if err != nil {
		return nil, err
	}
	fb := ring.SingleLayerFallback(d.Cfg.SharedBanksPerTile, 2)
	return &SubstrateReport{
		ReticlesX:            nx,
		ReticlesY:            ny,
		RoutedNets:           routed,
		SeamCrossings:        r.Utilization().SeamCrossings,
		DRCViolations:        len(viol),
		FallbackAlive:        fb.SystemAlive,
		FallbackCapacityLoss: fb.CapacityLossPct,
	}, nil
}
