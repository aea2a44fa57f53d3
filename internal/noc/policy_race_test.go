package noc

import (
	"sync"
	"testing"

	"waferscale/internal/geom"
)

// TestPolicyConcurrentCandidates is the race canary for the Topology
// concurrency contract (topology.go): the sharded engine calls
// Candidates from multiple goroutines in the same cycle, each with its
// own buffer, so every shipped policy must be safe for lock-free
// concurrent use. Run under -race (CI does), a policy smuggling mutable
// per-call state through its receiver trips the detector here.
func TestPolicyConcurrentCandidates(t *testing.T) {
	g := geom.NewGrid(12, 12)
	policies := map[string]RoutingPolicy{"oddeven": OddEvenPolicy{}}
	for _, name := range TopologyNames() {
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		policies[name] = topo.Policy()
	}
	const shards = 8
	for name, pol := range policies {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(band int) {
				defer wg.Done()
				var buf [MaxPorts]int
				for y := band; y < g.H; y += shards {
					for x := 0; x < g.W; x++ {
						cur := geom.C(x, y)
						g.All(func(dst geom.Coord) {
							for _, net := range []Network{XY, YX} {
								if n := pol.Candidates(net, cur, dst, cur, int(geom.North), buf[:]); n <= 0 {
									t.Errorf("%s: 0 candidates at %v for %v", name, cur, dst)
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
