package fault

import (
	"math/rand"

	"waferscale/internal/geom"
)

// Clustered fault generation. The paper's Fig. 6 Monte Carlo uses
// uniformly random fault maps, but real assembly and substrate defects
// cluster spatially (a bonding-head misstep, a substrate scratch, a
// contaminated reticle field hit neighboring sites together). The
// clustered generator supports an ablation: how the dual-network
// scheme holds up when the same number of faults arrives in clumps.

// ClusterConfig shapes the clustered generator.
type ClusterConfig struct {
	// MeanClusterSize is the average faults per defect event.
	MeanClusterSize float64
	// Radius bounds how far cluster members scatter (Chebyshev) from
	// the cluster seed.
	Radius int
}

// DefaultClusters models bonding-head events: ~3 faults within one
// tile of the seed.
func DefaultClusters() ClusterConfig {
	return ClusterConfig{MeanClusterSize: 3, Radius: 1}
}

// Clustered returns a fault map with exactly n faulty tiles generated
// as spatial clusters: seeds are uniform, each cluster claims a
// geometric-distributed number of tiles within the radius around its
// seed until n faults are placed.
func Clustered(grid geom.Grid, n int, cfg ClusterConfig, rng *rand.Rand) *Map {
	if n < 0 || n > grid.Size() {
		panic("fault: cluster count out of range")
	}
	m := NewMap(grid)
	if cfg.MeanClusterSize < 1 {
		cfg.MeanClusterSize = 1
	}
	pContinue := 1 - 1/cfg.MeanClusterSize // geometric size distribution
	for m.Count() < n {
		seed := grid.Coord(rng.Intn(grid.Size()))
		m.MarkFaulty(seed)
		for m.Count() < n && rng.Float64() < pContinue {
			// Scatter a cluster member near the seed.
			dx := rng.Intn(2*cfg.Radius+1) - cfg.Radius
			dy := rng.Intn(2*cfg.Radius+1) - cfg.Radius
			c := seed.Add(geom.C(dx, dy))
			if grid.In(c) {
				m.MarkFaulty(c)
			}
		}
	}
	return m
}
