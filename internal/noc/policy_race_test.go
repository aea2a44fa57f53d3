package noc

import (
	"sync"
	"testing"

	"waferscale/internal/geom"
)

// TestPolicyConcurrentRoute is the race canary for the Topology
// concurrency contract (topology.go): the Fig. 6 sweeps share one
// topology across parallel.ForEach workers, so every shipped policy
// must be safe for lock-free concurrent use.
// Run under -race (CI does), a policy smuggling mutable per-call state
// through its receiver trips the detector here.
func TestPolicyConcurrentRoute(t *testing.T) {
	g := geom.NewGrid(12, 12)
	policies := map[string]RoutingPolicy{"oddeven": OddEvenPolicy{}}
	for _, name := range TopologyNames() {
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		policies[name] = topo.Policy()
	}
	const workers = 8
	for name, pol := range policies {
		var wg sync.WaitGroup
		for s := 0; s < workers; s++ {
			wg.Add(1)
			go func(band int) {
				defer wg.Done()
				for y := band; y < g.H; y += workers {
					for x := 0; x < g.W; x++ {
						cur := geom.C(x, y)
						g.All(func(dst geom.Coord) {
							for _, net := range []Network{XY, YX} {
								if pol.Route(net, cur, dst, cur, int(geom.North)).First() < 0 {
									t.Errorf("%s: no port at %v for %v", name, cur, dst)
									return
								}
							}
						})
					}
				}
			}(s)
		}
		wg.Wait()
	}
}
