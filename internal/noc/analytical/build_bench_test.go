package analytical

import (
	"fmt"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// BenchmarkAnalyticalBuild times model construction on the fault-free
// mesh: the prefix-sum Model against the route-walking TopoModel, whose
// in-tree flow aggregation walks every (source, destination) pair and
// so grows as tiles². The gap is why NewForTopology keeps Model as the
// mesh fast path.
func BenchmarkAnalyticalBuild(b *testing.B) {
	build := map[string]func(fm *fault.Map) error{
		"model": func(fm *fault.Map) error {
			_, err := New(fm, Config{})
			return err
		},
		"topo": func(fm *fault.Map) error {
			topo, err := noc.NewTopology(noc.TopoMesh, fm.Grid())
			if err != nil {
				return err
			}
			_, err = NewTopoModel(topo, fm, Config{})
			return err
		},
	}
	for _, kind := range []string{"model", "topo"} {
		b.Run(kind, func(b *testing.B) {
			for _, side := range []int{16, 32, 64} {
				fm := fault.NewMap(geom.NewGrid(side, side))
				b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := build[kind](fm); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
