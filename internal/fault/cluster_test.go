package fault

import (
	"math/rand"
	"testing"

	"waferscale/internal/geom"
)

func TestClusteredExactCount(t *testing.T) {
	g := geom.NewGrid(32, 32)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 20, 100} {
		m := Clustered(g, n, DefaultClusters(), rng)
		if m.Count() != n {
			t.Errorf("Clustered(%d) placed %d", n, m.Count())
		}
	}
	// The same seed draws the same map.
	a := Clustered(g, 20, DefaultClusters(), rand.New(rand.NewSource(3)))
	b := Clustered(g, 20, DefaultClusters(), rand.New(rand.NewSource(3)))
	if a.String() != b.String() {
		t.Error("Clustered is not deterministic per seed")
	}
}

func TestClusteredPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Clustered(geom.NewGrid(2, 2), 9, DefaultClusters(), rand.New(rand.NewSource(1)))
}

// TestClusteredIsClumpier: the adjacency statistic separates clustered
// from uniform maps at the same fault count.
func TestClusteredIsClumpier(t *testing.T) {
	g := geom.NewGrid(32, 32)
	const n, trials = 20, 30
	var uniform, clustered float64
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		uniform += clumpiness(Random(g, n, rng))
		rng = rand.New(rand.NewSource(int64(i)))
		clustered += clumpiness(Clustered(g, n, DefaultClusters(), rng))
	}
	uniform /= trials
	clustered /= trials
	if clustered < 3*uniform+0.2 {
		t.Errorf("clustered adjacency %.3f not clearly above uniform %.3f", clustered, uniform)
	}
}

func TestClusteredDegenerateMeanSize(t *testing.T) {
	g := geom.NewGrid(8, 8)
	m := Clustered(g, 5, ClusterConfig{MeanClusterSize: 0, Radius: 1}, rand.New(rand.NewSource(2)))
	if m.Count() != 5 {
		t.Errorf("degenerate mean size placed %d", m.Count())
	}
}

// clumpiness is the mean number of faulty 4-neighbors per faulty tile:
// uniform maps at low density score near zero, clustered maps well above.
func clumpiness(m *Map) float64 {
	faulty := m.FaultyCoords()
	adj := 0
	for _, c := range faulty {
		for _, nb := range c.Neighbors() {
			if m.Grid().In(nb) && m.Faulty(nb) {
				adj++
			}
		}
	}
	return float64(adj) / float64(len(faulty))
}
