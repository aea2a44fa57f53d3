package geom

import (
	"testing"
	"testing/quick"
)

func TestCoordArithmetic(t *testing.T) {
	a, b := C(3, 4), C(1, -2)
	if got := a.Add(b); got != C(4, 2) {
		t.Errorf("Add = %v, want (4,2)", got)
	}
	if got := a.Sub(b); got != C(2, 6) {
		t.Errorf("Sub = %v, want (2,6)", got)
	}
	if got := a.Manhattan(b); got != 8 {
		t.Errorf("Manhattan = %d, want 8", got)
	}
	if got := a.Manhattan(a); got != 0 {
		t.Errorf("Manhattan(self) = %d, want 0", got)
	}
}

func TestDirOpposite(t *testing.T) {
	for _, d := range Dirs() {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: double opposite not identity", d)
		}
		sum := d.Delta().Add(d.Opposite().Delta())
		if sum != C(0, 0) {
			t.Errorf("%v: deltas do not cancel: %v", d, sum)
		}
	}
}

func TestDirStrings(t *testing.T) {
	want := map[Dir]string{North: "N", East: "E", South: "S", West: "W"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if Dir(9).String() != "Dir(9)" {
		t.Errorf("unknown dir string = %q", Dir(9).String())
	}
}

func TestStepNeighbors(t *testing.T) {
	c := C(5, 5)
	n := c.Neighbors()
	want := [4]Coord{{5, 6}, {6, 5}, {5, 4}, {4, 5}}
	if n != want {
		t.Errorf("Neighbors = %v, want %v", n, want)
	}
	for i, d := range Dirs() {
		if c.Step(d) != n[i] {
			t.Errorf("Step(%v) = %v, want %v", d, c.Step(d), n[i])
		}
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a, b, c := C(int(ax), int(ay)), C(int(bx), int(by)), C(int(cx), int(cy))
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a, b := C(int(ax), int(ay)), C(int(bx), int(by))
		return a.Manhattan(b) == b.Manhattan(a) && a.Manhattan(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := NewGrid(7, 5)
	if g.Size() != 35 {
		t.Fatalf("Size = %d", g.Size())
	}
	for i := 0; i < g.Size(); i++ {
		if got := g.Index(g.Coord(i)); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, g.Coord(i), got)
		}
	}
}

func TestGridBoundsPanics(t *testing.T) {
	g := NewGrid(4, 4)
	mustPanic(t, "Index out of range", func() { g.Index(C(4, 0)) })
	mustPanic(t, "Coord out of range", func() { g.Coord(16) })
	mustPanic(t, "zero grid", func() { NewGrid(0, 3) })
	mustPanic(t, "negative grid", func() { NewGrid(3, -1) })
}

func TestGridEdges(t *testing.T) {
	g := NewGrid(4, 3)
	edges := g.EdgeCoords()
	// 4x3 grid: all 12 tiles except the interior (1,1) and (2,1).
	if len(edges) != 10 {
		t.Fatalf("edge count = %d, want 10", len(edges))
	}
	for _, c := range edges {
		if !g.OnEdge(c) {
			t.Errorf("%v reported as edge but OnEdge false", c)
		}
	}
	if g.OnEdge(C(1, 1)) {
		t.Error("(1,1) should be interior")
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(3, 3)
	corner := g.Neighbors(C(0, 0), nil)
	if len(corner) != 2 {
		t.Errorf("corner neighbors = %v, want 2", corner)
	}
	center := g.Neighbors(C(1, 1), nil)
	if len(center) != 4 {
		t.Errorf("center neighbors = %v, want 4", center)
	}
	edge := g.Neighbors(C(1, 0), nil)
	if len(edge) != 3 {
		t.Errorf("edge neighbors = %v, want 3", edge)
	}
	// Reuse should append.
	buf := make([]Coord, 0, 8)
	buf = g.Neighbors(C(0, 0), buf)
	buf = g.Neighbors(C(2, 2), buf)
	if len(buf) != 4 {
		t.Errorf("appended neighbor count = %d, want 4", len(buf))
	}
}

func TestGridAllVisitsEverything(t *testing.T) {
	g := NewGrid(5, 4)
	seen := map[Coord]bool{}
	g.All(func(c Coord) { seen[c] = true })
	if len(seen) != g.Size() {
		t.Errorf("All visited %d tiles, want %d", len(seen), g.Size())
	}
}

func TestGridEdgePropertyQuick(t *testing.T) {
	g := NewGrid(32, 32)
	f := func(x, y uint8) bool {
		c := C(int(x)%32, int(y)%32)
		// A tile is on the edge exactly when it lacks a neighbor.
		return g.OnEdge(c) == (len(g.Neighbors(c, nil)) < 4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
