package geom

import "fmt"

// Grid describes a W x H integer tile array and provides bounds-checked
// index arithmetic. It is the shared shape descriptor for the fault map,
// the network analyses, the clock forwarding graph and the PDN solver.
type Grid struct {
	W, H int
}

// NewGrid returns a grid of the given dimensions. It panics if either
// dimension is non-positive: a zero-size array is always a programming
// error in this flow.
func NewGrid(w, h int) Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: invalid grid %dx%d", w, h))
	}
	return Grid{W: w, H: h}
}

// Size returns the number of tiles in the grid.
func (g Grid) Size() int { return g.W * g.H }

// In reports whether c lies inside the grid.
func (g Grid) In(c Coord) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H
}

// Index converts a coordinate to a dense row-major index. It panics on
// out-of-range coordinates so indexing bugs fail loudly.
func (g Grid) Index(c Coord) int {
	if !g.In(c) {
		panic(fmt.Sprintf("geom: coord %v outside %dx%d grid", c, g.W, g.H))
	}
	return c.Y*g.W + c.X
}

// Coord converts a dense row-major index back to a coordinate.
func (g Grid) Coord(i int) Coord {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("geom: index %d outside %dx%d grid", i, g.W, g.H))
	}
	return Coord{X: i % g.W, Y: i / g.W}
}

// OnEdge reports whether c is on the outer ring of the grid. Edge tiles
// are the only ones that can host clock generators and that receive the
// full 2.5 V supply in the edge power-delivery scheme.
func (g Grid) OnEdge(c Coord) bool {
	return g.In(c) && (c.X == 0 || c.Y == 0 || c.X == g.W-1 || c.Y == g.H-1)
}

// Neighbors appends the in-grid 4-neighbors of c to dst and returns the
// extended slice. Passing a reused dst avoids per-call allocation in the
// hot Monte-Carlo loops.
func (g Grid) Neighbors(c Coord, dst []Coord) []Coord {
	for _, d := range [4]Coord{c.Step(North), c.Step(East), c.Step(South), c.Step(West)} {
		if g.In(d) {
			dst = append(dst, d)
		}
	}
	return dst
}

// EdgeCoords returns all coordinates on the outer ring, in scan order.
func (g Grid) EdgeCoords() []Coord {
	out := make([]Coord, 0, 2*g.W+2*g.H-4)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			c := Coord{x, y}
			if g.OnEdge(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// All calls fn for every coordinate in row-major order.
func (g Grid) All(fn func(Coord)) {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			fn(Coord{x, y})
		}
	}
}

// String renders the grid dimensions.
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.W, g.H) }
