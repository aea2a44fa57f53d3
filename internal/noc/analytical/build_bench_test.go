package analytical

import (
	"fmt"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// BenchmarkAnalyticalBuild times model construction on the fault-free
// mesh through both marginal builds: the prefix sums NewForTopology
// uses for the mesh, against the in-tree aggregation every other
// topology uses, which walks every (source, destination) pair and so
// grows as tiles². The gap is why the mesh keeps its own build.
func BenchmarkAnalyticalBuild(b *testing.B) {
	builds := []struct {
		name  string
		build func(*Model) (int64, [2]int64)
	}{
		{"prefixsum", (*Model).buildPrefixSums},
		{"intree", (*Model).buildInTree},
	}
	for _, bl := range builds {
		b.Run(bl.name, func(b *testing.B) {
			for _, side := range []int{16, 32, 64} {
				fm := fault.NewMap(geom.NewGrid(side, side))
				topo := noc.MeshTopology(fm.Grid())
				b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := newModel(topo, fm, bl.build); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
