package core

import (
	"fmt"
	"math/rand"

	"waferscale/internal/chipio"
	"waferscale/internal/fault"
	"waferscale/internal/noc"
)

// Cross-section integration: the paper's design decisions compose. The
// bonding redundancy of Section V is not just about chiplet counts —
// it decides whether the Section VI network has anything to route
// around. YieldToConnectivity closes that loop: bonding yield ->
// expected fault map -> disconnected pairs.

// YieldConnectivity reports the composition for one redundancy choice.
type YieldConnectivity struct {
	PillarsPerPad    int
	TileLossProb     float64
	MeanFaultyTiles  float64
	MeanDisconnected float64 // % pairs disconnected, dual networks
}

// YieldToConnectivity Monte-Carlos fault maps drawn from the bonding
// yield of the given redundancy and measures dual-network
// connectivity. trials maps are sampled per point.
func (d *Design) YieldToConnectivity(pillarsPerPad, trials int, seed int64) (*YieldConnectivity, error) {
	if pillarsPerPad < 1 {
		return nil, fmt.Errorf("core: need at least one pillar per pad")
	}
	compute := chipio.BondConfig{
		PillarYield:    d.PillarYield,
		PillarsPerPad:  pillarsPerPad,
		PadsPerChiplet: d.Cfg.Compute.NumIOs,
	}
	memory := compute
	memory.PadsPerChiplet = d.Cfg.Memory.NumIOs
	p := chipio.TileLossProbability(compute, memory)

	out := &YieldConnectivity{
		PillarsPerPad:   pillarsPerPad,
		TileLossProb:    p,
		MeanFaultyTiles: p * float64(d.Cfg.Tiles()),
	}
	grid := d.Cfg.Grid()
	var discSum, faultSum float64
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(fault.TrialSeed(seed, pillarsPerPad, i)))
		fm := fault.FromYield(grid, p, rng)
		faultSum += float64(fm.Count())
		discSum += noc.NewTopoAnalyzer(noc.MeshTopology(grid), fm).AllPairs().PctDual()
	}
	if trials > 0 {
		out.MeanDisconnected = discSum / float64(trials)
		out.MeanFaultyTiles = faultSum / float64(trials)
	}
	return out, nil
}
