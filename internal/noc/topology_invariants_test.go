package noc

import (
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Invariant and fuzz coverage for the Topology contract (topology.go):
// every link bidirectional with consistent endpoints, unique arrival
// slots, full connectivity on a healthy grid, and the wedge guard —
// Candidates never returns 0 for an in-grid destination and every
// route terminates at its destination over existing links.

// topoGrids are the grids the invariants are checked on: square,
// ragged (partial CMesh blocks, clipped express rows), tall/wide, and
// the minimum size. Heights are even so the vertical topology builds.
var topoGrids = []geom.Grid{
	geom.NewGrid(2, 2),
	geom.NewGrid(7, 6),
	geom.NewGrid(12, 12),
	geom.NewGrid(5, 14),
	geom.NewGrid(13, 4),
}

// TestTopologyLinkGraphInvariants checks the structural contract for
// every shipped topology on every grid: NewSimTopology's validation
// (bidirectionality, in-grid endpoints, positive lengths, unique
// arrival slots) passes, and the link graph connects every tile pair.
func TestTopologyLinkGraphInvariants(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, g := range topoGrids {
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			if topo.Name() != name {
				t.Errorf("%s: Name() = %q", name, topo.Name())
			}
			if topo.Ports() > MaxPorts {
				t.Fatalf("%s: Ports() = %d exceeds MaxPorts", name, topo.Ports())
			}
			// The simulator constructor runs the full link-graph
			// validation; a contract violation surfaces here as an error.
			if _, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), topo); err != nil {
				t.Fatalf("%s %v: link graph rejected: %v", name, g, err)
			}
			// Connectivity: links are bidirectional (validated above), so
			// one BFS from tile 0 must reach every tile.
			seen := make([]bool, g.Size())
			queue := []int{0}
			seen[0] = true
			reached := 1
			for len(queue) > 0 {
				i := queue[0]
				queue = queue[1:]
				c := g.Coord(i)
				for p := 0; p < topo.Ports()-1; p++ {
					far, _, _, ok := topo.Link(c, p)
					if !ok {
						continue
					}
					fi := g.Index(far)
					if !seen[fi] {
						seen[fi] = true
						reached++
						queue = append(queue, fi)
					}
				}
			}
			if reached != g.Size() {
				t.Errorf("%s %v: link graph connects %d of %d tiles", name, g, reached, g.Size())
			}
		}
	}
}

// walkRoute follows a policy's first candidate from src to dst on one
// network, failing on a wedge (0 candidates), a candidate port without
// a link, an overlong route or delivery at the wrong tile. It returns
// the hop count.
func walkRoute(t *testing.T, topo Topology, net Network, src, dst geom.Coord) int {
	t.Helper()
	g := topo.Grid()
	pol := topo.Policy()
	local := topo.Ports() - 1
	var buf [MaxPorts]int
	cur := src
	arrival := local
	maxHops := 4 * (g.W + g.H)
	for hop := 0; ; hop++ {
		if hop > maxHops {
			t.Fatalf("%s %v->%v net %v: route exceeds %d hops (stuck at %v)", topo.Name(), src, dst, net, maxHops, cur)
		}
		n := pol.Candidates(net, src, dst, cur, arrival, buf[:])
		if n <= 0 {
			t.Fatalf("%s %v->%v net %v: Candidates returned %d at %v (wedge)", topo.Name(), src, dst, net, n, cur)
		}
		p := buf[0]
		if p == local {
			if cur != dst {
				t.Fatalf("%s %v->%v net %v: ejected at %v", topo.Name(), src, dst, net, cur)
			}
			return hop
		}
		far, ap, _, ok := topo.Link(cur, p)
		if !ok {
			t.Fatalf("%s %v->%v net %v: candidate port %d at %v has no link", topo.Name(), src, dst, net, p, cur)
		}
		cur, arrival = far, ap
	}
}

// TestTopologyRoutesTerminate walks every (src, dst) pair on both
// networks for every shipped topology — the wedge guard of policy.go
// exercised exhaustively on the link graph instead of statistically in
// the cycle engine.
func TestTopologyRoutesTerminate(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, g := range []geom.Grid{geom.NewGrid(8, 8), geom.NewGrid(9, 6)} {
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatal(err)
			}
			g.All(func(src geom.Coord) {
				g.All(func(dst geom.Coord) {
					for _, net := range []Network{XY, YX} {
						hops := walkRoute(t, topo, net, src, dst)
						if src == dst && hops != 0 {
							t.Fatalf("%s: self route %v took %d hops", name, src, hops)
						}
					}
				})
			})
		}
	}
}

// TestTopologyNextHopSourceFree checks the routing contract the
// connectivity analyzer's backward walk relies on, for every (src, cur,
// dst) on both networks: the first candidate depends only on (network,
// cur, dst) — not on the packet's source or the port it arrived on —
// and it is the local port exactly when cur is the destination.
func TestTopologyNextHopSourceFree(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, g := range []geom.Grid{geom.NewGrid(8, 8), geom.NewGrid(9, 6)} {
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatal(err)
			}
			pol := topo.Policy()
			local := topo.Ports() - 1
			var buf [MaxPorts]int
			next := func(net Network, src, cur, dst geom.Coord, arrival int) int {
				if n := pol.Candidates(net, src, dst, cur, arrival, buf[:]); n <= 0 {
					t.Fatalf("%s %v: Candidates returned %d at %v for %v", name, g, n, cur, dst)
				}
				return buf[0]
			}
			for _, net := range []Network{XY, YX} {
				g.All(func(cur geom.Coord) {
					g.All(func(dst geom.Coord) {
						want := next(net, cur, cur, dst, local)
						if (want == local) != (cur == dst) {
							t.Fatalf("%s %v net %v: first candidate at %v toward %v is port %d (local = %d)", name, g, net, cur, dst, want, local)
						}
						g.All(func(src geom.Coord) {
							if got := next(net, src, cur, dst, local); got != want {
								t.Fatalf("%s %v net %v: at %v toward %v, source %v picks port %d, source %v picks %d", name, g, net, cur, dst, src, got, cur, want)
							}
						})
						for arrival := 0; arrival < local; arrival++ {
							if got := next(net, cur, cur, dst, arrival); got != want {
								t.Fatalf("%s %v net %v: at %v toward %v, arrival port %d picks port %d, local arrival %d", name, g, net, cur, dst, arrival, got, want)
							}
						}
					})
				})
			}
		}
	}
}

// TestTopologyRouteImprovement pins what each topology buys: on a
// 16x16 grid, worst-case CMesh/express/vertical hop counts must beat
// the plain mesh's worst case (the whole point of the new link
// graphs).
func TestTopologyRouteImprovement(t *testing.T) {
	g := geom.NewGrid(16, 16)
	worst := func(name string) int {
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		w := 0
		g.All(func(src geom.Coord) {
			g.All(func(dst geom.Coord) {
				if h := walkRoute(t, topo, XY, src, dst); h > w {
					w = h
				}
			})
		})
		return w
	}
	mesh := worst(TopoMesh)
	if mesh != 2*(g.W-1) {
		t.Fatalf("mesh worst-case hops = %d, want %d", mesh, 2*(g.W-1))
	}
	for _, name := range newTopologies {
		if w := worst(name); w >= mesh {
			t.Errorf("%s worst-case hops = %d, not better than mesh %d", name, w, mesh)
		}
	}
}

// TestNormalizeTopology pins the canonicalization serve cache keys
// depend on: empty means mesh, case and whitespace are stripped,
// unknown names error.
func TestNormalizeTopology(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", TopoMesh, true},
		{"mesh", TopoMesh, true},
		{" CMesh ", TopoCMesh, true},
		{"EXPRESS", TopoExpress, true},
		{"vertical", TopoVertical, true},
		{"torus", "", false},
	}
	for _, c := range cases {
		got, err := NormalizeTopology(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("NormalizeTopology(%q) = %q, %v; want %q, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestNewTopologyRejects pins the constructor's validation errors.
func TestNewTopologyRejects(t *testing.T) {
	if _, err := NewTopology("hypercube", geom.NewGrid(8, 8)); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := NewTopology(TopoMesh, geom.NewGrid(1, 8)); err == nil {
		t.Error("1-wide grid accepted")
	}
	if _, err := NewTopology(TopoVertical, geom.NewGrid(8, 7)); err == nil {
		t.Error("vertical topology accepted an odd row count")
	}
}

// TestNewSimTopologyRejectsBrokenGraph feeds the validator a
// deliberately corrupted link graph and requires construction to fail —
// the invariant the sharded engine's determinism rests on must be
// enforced, not assumed.
func TestNewSimTopologyRejectsBrokenGraph(t *testing.T) {
	g := geom.NewGrid(4, 4)
	base := MeshTopology(g)
	for _, tc := range []struct {
		name string
		topo Topology
	}{
		{"unidirectional", brokenTopo{base, func(c geom.Coord, p int) (geom.Coord, int, int, bool) {
			// East link from (0,0) answers, but the reverse West link
			// from (1,0) denies it.
			if c == geom.C(1, 0) && p == portW {
				return geom.Coord{}, 0, 0, false
			}
			return base.Link(c, p)
		}}},
		{"length-mismatch", brokenTopo{base, func(c geom.Coord, p int) (geom.Coord, int, int, bool) {
			far, ap, ln, ok := base.Link(c, p)
			if c == geom.C(2, 2) && p == portN {
				ln = 3
			}
			return far, ap, ln, ok
		}}},
		{"arrival-collision", brokenTopo{base, func(c geom.Coord, p int) (geom.Coord, int, int, bool) {
			// Two links claim to arrive at ((1,1), portW).
			far, ap, ln, ok := base.Link(c, p)
			if ok && far == (geom.C(1, 1)) {
				ap = portW
			}
			return far, ap, ln, ok
		}}},
		{"self-loop", brokenTopo{base, func(c geom.Coord, p int) (geom.Coord, int, int, bool) {
			if c == geom.C(3, 3) && p == portN {
				return c, portS, 1, true
			}
			return base.Link(c, p)
		}}},
	} {
		if _, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), tc.topo); err == nil {
			t.Errorf("%s: corrupted link graph accepted", tc.name)
		}
	}
}

// brokenTopo wraps a topology with an overridden Link for negative
// validator tests.
type brokenTopo struct {
	Topology
	link func(geom.Coord, int) (geom.Coord, int, int, bool)
}

func (b brokenTopo) Link(c geom.Coord, p int) (geom.Coord, int, int, bool) { return b.link(c, p) }

// FuzzTopologyRoute fuzzes (topology, grid, pair): whatever in-grid
// source/destination the fuzzer picks, the route must terminate at the
// destination over existing links with nonzero candidates at every
// hop.
func FuzzTopologyRoute(f *testing.F) {
	f.Add(uint8(1), uint8(9), uint8(7), uint8(0), uint8(0), uint8(8), uint8(6))
	f.Add(uint8(2), uint8(12), uint8(12), uint8(3), uint8(11), uint8(4), uint8(0))
	f.Add(uint8(3), uint8(6), uint8(8), uint8(5), uint8(2), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, ti, w, h, sx, sy, dx, dy uint8) {
		names := TopologyNames()
		name := names[int(ti)%len(names)]
		g := geom.NewGrid(2+int(w)%15, 2+int(h)%15)
		if name == TopoVertical && g.H%2 != 0 {
			g.H++
		}
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatalf("%s %v: %v", name, g, err)
		}
		src := geom.C(int(sx)%g.W, int(sy)%g.H)
		dst := geom.C(int(dx)%g.W, int(dy)%g.H)
		for _, net := range []Network{XY, YX} {
			walkRoute(t, topo, net, src, dst)
		}
	})
}
