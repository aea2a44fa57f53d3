package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func TestNetworkComplement(t *testing.T) {
	if XY.Complement() != YX || YX.Complement() != XY {
		t.Error("complement wrong")
	}
	if XY.String() != "X-Y" || YX.String() != "Y-X" {
		t.Error("network names wrong")
	}
}

// Route returns the sequence of tiles a mesh DoR packet visits from
// src to dst on the given network, inclusive of both endpoints: the
// brute-force reference walk the analyzers are tested against.
// Dimension-ordered routes are unique; a route never visits a tile
// twice.
func Route(net Network, src, dst geom.Coord) []geom.Coord {
	path := make([]geom.Coord, 0, src.Manhattan(dst)+1)
	cur := src
	path = append(path, cur)
	stepToward := func(cur, target int) int {
		switch {
		case cur < target:
			return cur + 1
		case cur > target:
			return cur - 1
		}
		return cur
	}
	if net == XY {
		for cur.X != dst.X {
			cur.X = stepToward(cur.X, dst.X)
			path = append(path, cur)
		}
		for cur.Y != dst.Y {
			cur.Y = stepToward(cur.Y, dst.Y)
			path = append(path, cur)
		}
	} else {
		for cur.Y != dst.Y {
			cur.Y = stepToward(cur.Y, dst.Y)
			path = append(path, cur)
		}
		for cur.X != dst.X {
			cur.X = stepToward(cur.X, dst.X)
			path = append(path, cur)
		}
	}
	return path
}

func TestRouteXY(t *testing.T) {
	path := Route(XY, geom.C(1, 1), geom.C(3, 2))
	want := []geom.Coord{geom.C(1, 1), geom.C(2, 1), geom.C(3, 1), geom.C(3, 2)}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
}

func TestRouteYX(t *testing.T) {
	path := Route(YX, geom.C(1, 1), geom.C(3, 2))
	want := []geom.Coord{geom.C(1, 1), geom.C(1, 2), geom.C(2, 2), geom.C(3, 2)}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
}

func TestRouteSelf(t *testing.T) {
	p := Route(XY, geom.C(2, 2), geom.C(2, 2))
	if len(p) != 1 || p[0] != geom.C(2, 2) {
		t.Errorf("self route = %v", p)
	}
}

// TestRouteProperties: DoR routes are minimal and the two networks'
// routes are tile-reversals of each other between swapped endpoints —
// the property that makes request/response pairing work (Fig. 7).
func TestRouteProperties(t *testing.T) {
	f := func(sx, sy, dx, dy uint8) bool {
		s := geom.C(int(sx)%16, int(sy)%16)
		d := geom.C(int(dx)%16, int(dy)%16)
		xy := Route(XY, s, d)
		yx := Route(YX, d, s) // response direction
		if len(xy) != s.Manhattan(d)+1 || len(yx) != len(xy) {
			return false
		}
		// Same tiles, reverse order.
		for i := range xy {
			if xy[i] != yx[len(yx)-1-i] {
				return false
			}
		}
		// No tile visited twice.
		seen := map[geom.Coord]bool{}
		for _, c := range xy {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNextHopFollowsRoute: stepping NextHop repeatedly must replay the
// Route exactly and terminate.
func TestNextHopFollowsRoute(t *testing.T) {
	f := func(sx, sy, dx, dy uint8, netSel bool) bool {
		s := geom.C(int(sx)%12, int(sy)%12)
		d := geom.C(int(dx)%12, int(dy)%12)
		net := XY
		if netSel {
			net = YX
		}
		want := Route(net, s, d)
		cur := s
		for i := 0; ; i++ {
			if i >= len(want) || want[i] != cur {
				return false
			}
			dir, ok := NextHop(net, cur, d)
			if !ok {
				return cur == d && i == len(want)-1
			}
			cur = cur.Step(dir)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSameRowOrColumn(t *testing.T) {
	if !SameRowOrColumn(geom.C(3, 5), geom.C(3, 9)) {
		t.Error("same column not detected")
	}
	if !SameRowOrColumn(geom.C(3, 5), geom.C(7, 5)) {
		t.Error("same row not detected")
	}
	if SameRowOrColumn(geom.C(3, 5), geom.C(4, 6)) {
		t.Error("diagonal pair misclassified")
	}
}

// TestAnalyzerMatchesRoute cross-checks the O(1) prefix-sum path oracle
// against walking the actual route.
func TestAnalyzerMatchesRoute(t *testing.T) {
	g := geom.NewGrid(12, 12)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		fm := fault.Random(g, trial%20, rng)
		an := NewAnalyzer(fm)
		for rep := 0; rep < 200; rep++ {
			s := geom.C(rng.Intn(12), rng.Intn(12))
			d := geom.C(rng.Intn(12), rng.Intn(12))
			for _, net := range []Network{XY, YX} {
				want := true
				for _, c := range Route(net, s, d) {
					if fm.Faulty(c) {
						want = false
						break
					}
				}
				if got := an.PathClear(net, s, d); got != want {
					t.Fatalf("trial %d: PathClear(%v,%v->%v) = %v, want %v\n%s",
						trial, net, s, d, got, want, fm)
				}
			}
		}
	}
}

func TestPairConnectedDualSemantics(t *testing.T) {
	// Block the XY path but not the YX path.
	fm := fault.NewMap(geom.NewGrid(8, 8))
	// XY route (0,0)->(4,4): row 0 to x=4, then column 4 up. Kill (2,0).
	fm.MarkFaulty(geom.C(2, 0))
	an := NewAnalyzer(fm)
	s, d := geom.C(0, 0), geom.C(4, 4)
	if an.PathClear(XY, s, d) {
		t.Fatal("XY path should be blocked")
	}
	if !an.PathClear(YX, s, d) {
		t.Fatal("YX path should be clear")
	}
}

// TestFig6Headline reproduces the paper's Fig. 6 anchor point: with
// five faulty chiplets on the 32x32 wafer, more than 12% of pairs lose
// their single X-Y path, but fewer than 2% lose both paths.
func TestFig6Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-array Monte Carlo")
	}
	pts := mustFig6(t, geom.NewGrid(32, 32), []int{5}, 12, 2021, 0)
	p := pts[0]
	if p.PctSingle.Mean <= 10 {
		t.Errorf("single-network disconnect at 5 faults = %.2f%%, paper reports >12%%", p.PctSingle.Mean)
	}
	if p.PctDual.Mean >= 2 {
		t.Errorf("dual-network disconnect at 5 faults = %.2f%%, paper reports <2%%", p.PctDual.Mean)
	}
	if p.PctDual.Mean >= p.PctSingle.Mean {
		t.Error("dual network must dominate single")
	}
}

// TestFig6MonotoneAndDominant: more faults disconnect more pairs, and
// the dual-network curve sits below the single-network curve at every
// fault count.
func TestFig6MonotoneAndDominant(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	counts := []int{1, 3, 5, 10, 20}
	pts := mustFig6(t, geom.NewGrid(16, 16), counts, 10, 7, 0)
	for i, p := range pts {
		if p.PctDual.Mean > p.PctSingle.Mean {
			t.Errorf("faults=%d: dual %.2f%% > single %.2f%%", p.Faults, p.PctDual.Mean, p.PctSingle.Mean)
		}
		if i > 0 && p.PctSingle.Mean < pts[i-1].PctSingle.Mean {
			t.Errorf("single curve not monotone at faults=%d", p.Faults)
		}
	}
}

func TestAllPairsZeroFaults(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	st := NewAnalyzer(fm).AllPairs()
	if st.Pairs != 64*63/2 {
		t.Errorf("pairs = %d, want %d", st.Pairs, 64*63/2)
	}
	if st.DisconnectedSingle != 0 || st.DisconnectedDual != 0 {
		t.Error("healthy array should be fully connected")
	}
	if st.PctSingle() != 0 || st.PctDual() != 0 {
		t.Error("percentages should be zero")
	}
}

// TestResidualDisconnectionsAreSameRowCol: the paper notes the pairs
// still disconnected with two networks "mostly connect those pairs of
// chiplets that are in the same row/column".
func TestResidualDisconnectionsAreSameRowCol(t *testing.T) {
	if testing.Short() {
		t.Skip("full-array pair scans")
	}
	// The claim holds in the paper's regime of a handful of faults on
	// the 32x32 array: a single fault can only cut the coincident
	// straight-line paths of same-row/column pairs, while off-axis
	// pairs need separate faults on both of their disjoint paths.
	g := geom.NewGrid(32, 32)
	rng := rand.New(rand.NewSource(5))
	totalDual, totalSameRC := 0, 0
	for trial := 0; trial < 12; trial++ {
		fm := fault.Random(g, 2, rng)
		st := NewAnalyzer(fm).AllPairs()
		totalDual += st.DisconnectedDual
		totalSameRC += st.DualSameRowCol
	}
	if totalDual == 0 {
		t.Skip("no dual disconnections sampled")
	}
	if frac := float64(totalSameRC) / float64(totalDual); frac < 0.5 {
		t.Errorf("same-row/col fraction of residual disconnections = %.2f, want majority", frac)
	}
}

func TestKernelDirectSelection(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	d, err := k.Decide(geom.C(0, 0), geom.C(5, 5))
	if err != nil || !d.Reachable || len(d.Via) != 0 {
		t.Fatalf("decision = %+v, %v", d, err)
	}
	// Memoized: same network on repeat (packet consistency).
	d2, _ := k.Decide(geom.C(0, 0), geom.C(5, 5))
	if d2.Request != d.Request {
		t.Error("pair not pinned to one network")
	}
}

// kernelUtilization reports how many pairs the kernel has pinned to each
// network (requests only).
func kernelUtilization(k *Kernel) (xy, yx, detoured, unreachable int) {
	for _, d := range k.assigned {
		switch {
		case !d.Reachable:
			unreachable++
		case len(d.Via) > 0:
			detoured++
		case d.Request == XY:
			xy++
		default:
			yx++
		}
	}
	return
}

func TestKernelLoadBalancing(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	k.PlanAll()
	xy, yx, detoured, unreachable := kernelUtilization(k)
	if detoured != 0 || unreachable != 0 {
		t.Fatalf("healthy array: detoured=%d unreachable=%d", detoured, unreachable)
	}
	total := xy + yx
	if total == 0 {
		t.Fatal("no decisions made")
	}
	// Both-path pairs alternate; same-row/col pairs have only one
	// clear... actually on a healthy array both paths are always clear
	// (they coincide for same-row/col pairs, still reported clear on
	// both networks), so balance should be near 50/50.
	if diff := xy - yx; diff < -total/10 || diff > total/10 {
		t.Errorf("network utilization unbalanced: XY=%d YX=%d", xy, yx)
	}
}

// meshLegClear reports whether the mesh DoR route from a to b on net
// avoids every faulty tile.
func meshLegClear(fm *fault.Map, net Network, a, b geom.Coord) bool {
	for _, c := range Route(net, a, b) {
		if fm.Faulty(c) {
			return false
		}
	}
	return true
}

func TestKernelFaultAwareSelection(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	fm.MarkFaulty(geom.C(2, 0)) // blocks XY route (0,0)->(4,4)
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	d, err := k.Decide(geom.C(0, 0), geom.C(4, 4))
	if err != nil || !d.Reachable {
		t.Fatal(err)
	}
	if d.Request != YX || len(d.Via) != 0 {
		t.Errorf("decision = %+v, want direct YX", d)
	}
	if !meshLegClear(fm, d.Request, geom.C(0, 0), geom.C(4, 4)) {
		t.Error("request route crosses a faulty tile")
	}
}

func TestKernelDetour(t *testing.T) {
	// Same-row pair with the row blocked between them: both DoR paths
	// coincide and are blocked; a detour through another row fixes it.
	fm := fault.NewMap(geom.NewGrid(8, 8))
	fm.MarkFaulty(geom.C(3, 0))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	src, dst := geom.C(0, 0), geom.C(6, 0)
	d, err := k.Decide(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reachable || len(d.Via) == 0 {
		t.Fatalf("decision = %+v, want detour", d)
	}
	// The first leg rides the decided network; a relay re-plans, so
	// every later leg needs a clear route on some network.
	stops := decisionStops(src, dst, d)
	if len(stops) != 3 {
		t.Fatalf("detour should have two legs, got stops %v", stops)
	}
	hops := 0
	for i := 0; i+1 < len(stops); i++ {
		a, b := stops[i], stops[i+1]
		clear := meshLegClear(fm, d.Request, a, b)
		if i > 0 {
			clear = meshLegClear(fm, XY, a, b) || meshLegClear(fm, YX, a, b)
		}
		if !clear {
			t.Errorf("detour leg %v->%v crosses a faulty tile", a, b)
		}
		hops += a.Manhattan(b)
	}
	// The relay adds minimal hops: total length should be the direct
	// distance plus a small dogleg (2 extra steps for adjacent row).
	if hops > src.Manhattan(dst)+2 {
		t.Errorf("detour hops = %d, want <= %d", hops, src.Manhattan(dst)+2)
	}
}

func TestKernelUnreachable(t *testing.T) {
	// Box in the destination completely.
	fm := fault.NewMap(geom.NewGrid(8, 8))
	dst := geom.C(4, 4)
	for _, n := range dst.Neighbors() {
		fm.MarkFaulty(n)
	}
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	d, err := k.Decide(geom.C(0, 0), dst)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reachable {
		t.Error("boxed-in destination reported reachable")
	}
}

func TestKernelErrors(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(1, 1))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	if _, err := k.Decide(geom.C(9, 9), geom.C(0, 0)); err == nil {
		t.Error("off-grid source accepted")
	}
	if _, err := k.Decide(geom.C(0, 0), geom.C(1, 1)); err == nil {
		t.Error("faulty destination accepted")
	}
}

// TestDetourRepairsResiduals quantifies the Section VI workaround: on
// random fault maps, kernel detours must repair the vast majority of
// pairs the dual networks leave disconnected (everything except truly
// partitioned tiles).
func TestDetourRepairsResiduals(t *testing.T) {
	g := geom.NewGrid(12, 12)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		fm := fault.Random(g, 10, rng)
		st := NewAnalyzer(fm).AllPairs()
		k := NewKernel(MeshTopology(fm.Grid()), fm)
		_, detoured, unreachable := k.PlanAll()
		_ = detoured
		if st.DisconnectedDual == 0 {
			continue
		}
		// Unreachable pairs must be exactly those between different
		// 4-connected components — detours fix all others.
		comp := components(fm)
		wantUnreachable := 0
		healthy := fm.HealthyCoords()
		for _, s := range healthy {
			for _, d := range healthy {
				if s != d && comp[g.Index(s)] != comp[g.Index(d)] {
					wantUnreachable++
				}
			}
		}
		if unreachable != wantUnreachable {
			t.Errorf("trial %d: unreachable = %d, want %d (cross-component pairs)\n%s",
				trial, unreachable, wantUnreachable, fm)
		}
	}
}

// components labels 4-connected healthy components.
func components(fm *fault.Map) []int {
	g := fm.Grid()
	comp := make([]int, g.Size())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []geom.Coord
	g.All(func(c geom.Coord) {
		if !fm.Healthy(c) || comp[g.Index(c)] >= 0 {
			return
		}
		next++
		stack = append(stack[:0], c)
		comp[g.Index(c)] = next
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, n := range cur.Neighbors() {
				if fm.Healthy(n) && comp[g.Index(n)] < 0 {
					comp[g.Index(n)] = next
					stack = append(stack, n)
				}
			}
		}
	})
	return comp
}

// TestKernelDetourNeedsKernelCycles is a documentation-level check on
// PlanAll counters: direct + detour + unreachable covers all pairs.
func TestKernelPlanAllCounts(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(6, 6))
	fm.MarkFaulty(geom.C(3, 3))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	direct, detour, unreachable := k.PlanAll()
	healthy := fm.HealthyCount()
	if direct+detour+unreachable != healthy*(healthy-1) {
		t.Errorf("counts %d+%d+%d != %d pairs", direct, detour, unreachable, healthy*(healthy-1))
	}
}
