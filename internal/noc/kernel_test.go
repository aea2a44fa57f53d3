package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// decisionStops lists the tiles a request stops at under a kernel
// decision: the source, each relay, then the destination.
func decisionStops(src, dst geom.Coord, d Decision) []geom.Coord {
	return append(append([]geom.Coord{src}, d.Via...), dst)
}

// TestKernelRelaysMinimal checks the relay planner against a brute-force
// search on the topology's real routes. The reference is a BFS over the
// healthy tiles whose edges u->v are the XY or YX routes routeWalkClear
// finds clear, so the fewest relays for a pair is its BFS distance
// minus one. For every ordered healthy pair, on every topology and on
// maps with 0-5 random faults: Decide is reachable exactly when the BFS
// reaches the destination, uses exactly that many relays, its first
// leg is clear on the decided request network, and every later leg
// (a relay re-plans) is clear on some network.
func TestKernelRelaysMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2605))
	for _, g := range []geom.Grid{geom.NewGrid(4, 4), geom.NewGrid(6, 4), geom.NewGrid(5, 6)} {
		var maps []*fault.Map
		for faults := 0; faults <= 5; faults++ {
			for range 3 {
				maps = append(maps, fault.Random(g, faults, rng))
			}
		}
		for _, name := range TopologyNames() {
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatal(err)
			}
			for mi, fm := range maps {
				rel := routeWalkClear(topo, fm)
				words := (g.Size() + 63) / 64
				clear := func(net Network, s, d int) bool {
					return rel[net][d*words+s>>6]>>uint(s&63)&1 != 0
				}
				healthy := fm.HealthyCoords()
				k := NewKernel(topo, fm)
				for _, src := range healthy {
					// hops[d] is the fewest clear routes chaining src to d.
					hops := make([]int, g.Size())
					for i := range hops {
						hops[i] = -1
					}
					hops[g.Index(src)] = 0
					queue := []int{g.Index(src)}
					for len(queue) > 0 {
						u := queue[0]
						queue = queue[1:]
						for _, c := range healthy {
							v := g.Index(c)
							if hops[v] < 0 && (clear(XY, u, v) || clear(YX, u, v)) {
								hops[v] = hops[u] + 1
								queue = append(queue, v)
							}
						}
					}
					for _, dst := range healthy {
						if dst == src {
							continue
						}
						d, err := k.Decide(src, dst)
						if err != nil {
							t.Fatal(err)
						}
						want := hops[g.Index(dst)]
						if d.Reachable != (want > 0) {
							t.Fatalf("%s %v map %d %v->%v: reachable %v, brute force %v", name, g, mi, src, dst, d.Reachable, want > 0)
						}
						if !d.Reachable {
							continue
						}
						if len(d.Via) != want-1 {
							t.Fatalf("%s %v map %d %v->%v: %d relays %v, fewest %d", name, g, mi, src, dst, len(d.Via), d.Via, want-1)
						}
						stops := decisionStops(src, dst, d)
						for i := 0; i+1 < len(stops); i++ {
							a, b := g.Index(stops[i]), g.Index(stops[i+1])
							ok := clear(d.Request, a, b)
							if i > 0 {
								ok = clear(XY, a, b) || clear(YX, a, b)
							}
							if !ok {
								t.Fatalf("%s %v map %d %v->%v: leg %d %v->%v blocked (request net %v)", name, g, mi, src, dst, i, stops[i], stops[i+1], d.Request)
							}
						}
					}
				}
			}
		}
	}
}
