package noc

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
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
// the link-graph invariants the cycle engine rests on must be enforced,
// not assumed.
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

// cdgCycle builds one network's channel-dependency graph for a routing
// policy over a topology's link graph and returns a dependency cycle,
// as the input buffers (tile*Ports()+port) along it, or nil when the
// graph is acyclic. By Dally & Seitz's criterion, routing whose
// channel-dependency graph is acyclic cannot deadlock.
//
// A node is an input buffer (tile, in-port). A packet held in buffer
// (c, in) may wait for every candidate port the policy offers it
// there, so each link candidate adds an edge to the buffer it lands in
// at the far end. Ejection (the local port) adds no edge: the check
// assumes a packet at its destination always sinks. The engine makes
// that true — allocate grants the local port without a credit check,
// and traverse frees the handle before OnDeliver runs — and it is what
// rules out protocol deadlock here, more than the request/response
// network split. A change that bounds ejection must add the request ->
// response dependency to this graph. Only reachable
// states count: per destination, every source injects at its local
// port and the walk follows every candidate from there, so it visits
// the destination's routing in-tree (a DAG for an adaptive policy).
// States carry the packet's source, because a policy may read it
// (odd-even does in the source column).
func cdgCycle(t *testing.T, topo Topology, pol RoutingPolicy, net Network) []int {
	t.Helper()
	g, np := topo.Grid(), topo.Ports()
	n, local := g.Size(), np-1
	// nbr[tile*np+port] is the buffer the link through port lands in
	// (-1 = no link).
	nbr := make([]int, n*np)
	for i := range nbr {
		nbr[i] = -1
		if p := i % np; p != local {
			if far, ap, _, ok := topo.Link(g.Coord(i/np), p); ok {
				nbr[i] = g.Index(far)*np + ap
			}
		}
	}
	// succ[b] is the set of link ports some reachable packet in buffer
	// b waits for; seen[b*n+src] stamps the destination that reached
	// state (b, src).
	succ := make([]uint32, n*np)
	seen := make([]int32, n*np*n)
	var stack []int
	var buf [MaxPorts]int
	for d := 0; d < n; d++ {
		dst, stamp := g.Coord(d), int32(d+1)
		for s := 0; s < n; s++ {
			if s != d {
				stack = append(stack, (s*np+local)*n+s)
			}
		}
		for len(stack) > 0 {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b, s := st/n, st%n
			tile := b - b%np
			k := pol.Candidates(net, g.Coord(s), dst, g.Coord(b/np), b%np, buf[:])
			for _, p := range buf[:k] {
				if p == local {
					continue
				}
				nb := nbr[tile+p]
				if nb < 0 {
					t.Fatalf("%s %v net %v: candidate port %d at %v has no link", topo.Name(), g, net, p, g.Coord(b/np))
				}
				succ[b] |= 1 << uint(p)
				if ns := nb*n + s; seen[ns] != stamp {
					seen[ns] = stamp
					stack = append(stack, ns)
				}
			}
		}
	}
	// Depth-first search for a back edge.
	state := make([]uint8, n*np) // 0 unvisited, 1 on the path, 2 done
	var path []int
	var visit func(b int) []int
	visit = func(b int) []int {
		state[b] = 1
		path = append(path, b)
		for m := succ[b]; m != 0; m &= m - 1 {
			nb := nbr[b-b%np+bits.TrailingZeros32(m)]
			switch state[nb] {
			case 1:
				return path[slices.Index(path, nb):]
			case 0:
				if cyc := visit(nb); cyc != nil {
					return cyc
				}
			}
		}
		path = path[:len(path)-1]
		state[b] = 2
		return nil
	}
	for b := range succ {
		if state[b] == 0 {
			if cyc := visit(b); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// mixedDoRPolicy is a planted deadlock: on either network it routes
// X-first toward destinations of even parity and Y-first toward the
// rest, so one network makes all eight turns and its buffers can wait
// on each other in a ring.
type mixedDoRPolicy struct{}

func (mixedDoRPolicy) Candidates(_ Network, src, dst, cur geom.Coord, in int, buf []int) int {
	net := XY
	if (dst.X+dst.Y)%2 == 1 {
		net = YX
	}
	return DoRPolicy{}.Candidates(net, src, dst, cur, in, buf)
}

// TestRoutingDeadlockFree checks deadlock freedom as a property instead
// of a comment: each network's channel-dependency graph over reachable
// routes (cdgCycle) must be acyclic, for every shipped topology's
// policy and for odd-even on the mesh, on square, non-square and odd
// grids and on 2x2, the smallest grid every topology accepts. A planted
// policy that mixes XY and YX routes on one network must fail it.
func TestRoutingDeadlockFree(t *testing.T) {
	grids := append([]geom.Grid{geom.NewGrid(7, 7), geom.NewGrid(9, 5)}, topoGrids...)
	check := func(name string, topo Topology, pol RoutingPolicy) {
		for _, net := range []Network{XY, YX} {
			if cyc := cdgCycle(t, topo, pol, net); cyc != nil {
				g, np := topo.Grid(), topo.Ports()
				ring := make([]string, len(cyc))
				for i, b := range cyc {
					ring[i] = fmt.Sprintf("%v port %d", g.Coord(b/np), b%np)
				}
				t.Errorf("%s %v net %v: channel-dependency cycle %s", name, g, net, strings.Join(ring, " -> "))
			}
		}
	}
	for _, g := range grids {
		for _, name := range TopologyNames() {
			if name == TopoVertical && g.H%2 != 0 {
				continue // the two-layer fold needs an even row count
			}
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			check(name, topo, topo.Policy())
		}
		check("oddeven", MeshTopology(g), OddEvenPolicy{})
	}
	mesh := MeshTopology(geom.NewGrid(4, 4))
	for _, net := range []Network{XY, YX} {
		if cdgCycle(t, mesh, mixedDoRPolicy{}, net) == nil {
			t.Errorf("net %v: the planted XY/YX-mixing policy passed the deadlock check", net)
		}
	}
}
