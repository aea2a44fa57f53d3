package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TestClusteredFaultsAblation: the paper's Fig. 6 draws faults
// uniformly; real defects cluster. Clusters concentrate damage into
// fewer rows and columns, so at the same fault count the single-network
// disconnection rate drops relative to uniform placement — while the
// clustered map is likelier to wall off individual tiles entirely.
func TestClusteredFaultsAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo ablation")
	}
	grid := geom.NewGrid(32, 32)
	const faults = 12
	const trials = 10

	uniform := uniformMaps(grid)
	clustered := clusteredMaps(grid, fault.DefaultClusters())
	single := func(m *fault.Map) float64 { return NewAnalyzer(m).AllPairs().PctSingle() }

	uni := sampleMaps(trials, faults, 77, uniform, single)
	clu := sampleMaps(trials, faults, 77, clustered, single)
	if clu.Mean >= uni.Mean {
		t.Errorf("clustered single-net disconnection %.2f%% should be below uniform %.2f%%",
			clu.Mean, uni.Mean)
	}

	// Dual-network residuals stay small either way — the scheme is
	// robust to the fault distribution, not just its count.
	dual := func(m *fault.Map) float64 { return NewAnalyzer(m).AllPairs().PctDual() }
	cluDual := sampleMaps(trials, faults, 77, clustered, dual)
	if cluDual.Mean > 5 {
		t.Errorf("clustered dual-net disconnection %.2f%% unexpectedly large", cluDual.Mean)
	}
}

// TestClusteredIsolationRisk: clusters are better at boxing in healthy
// tiles (the Fig. 4 "tile 2" failure mode) than scattered faults.
func TestClusteredIsolationRisk(t *testing.T) {
	grid := geom.NewGrid(32, 32)
	const faults = 40
	const trials = 40
	iso := func(m *fault.Map) float64 { return float64(len(m.Isolated())) }
	uni := sampleMaps(trials, faults, 3, uniformMaps(grid), iso)
	clu := sampleMaps(trials, faults, 3, clusteredMaps(grid, fault.ClusterConfig{MeanClusterSize: 5, Radius: 1}), iso)
	if clu.Mean < uni.Mean {
		t.Errorf("clustered isolation %.3f should be >= uniform %.3f", clu.Mean, uni.Mean)
	}
}

// sampleMaps evaluates metric over trials fault maps with n faults
// each, trial i drawn from its own rand.Rand seeded by
// fault.TrialSeed(seed, n, i) — the seeding of every Monte Carlo in the
// repository — and summarizes the samples.
func sampleMaps(trials, n int, seed int64, draw func(int, *rand.Rand) *fault.Map, metric func(*fault.Map) float64) fault.Stats {
	samples := make([]float64, trials)
	for i := range samples {
		samples[i] = metric(draw(n, rand.New(rand.NewSource(fault.TrialSeed(seed, n, i)))))
	}
	return fault.Collect(samples)
}

func uniformMaps(grid geom.Grid) func(int, *rand.Rand) *fault.Map {
	return func(n int, rng *rand.Rand) *fault.Map { return fault.Random(grid, n, rng) }
}

func clusteredMaps(grid geom.Grid, cfg fault.ClusterConfig) func(int, *rand.Rand) *fault.Map {
	return func(n int, rng *rand.Rand) *fault.Map { return fault.Clustered(grid, n, cfg, rng) }
}
