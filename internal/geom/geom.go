// Package geom provides the small geometric vocabulary shared by the
// waferscale design flow: integer grid coordinates for the tile array,
// micron-denominated points for chiplet and substrate floorplanning,
// and Manhattan-distance helpers used by the routers and the network
// analyses.
//
// Two coordinate systems coexist in the flow:
//
//   - Tile coordinates (Coord): integer (X, Y) positions in the 32x32
//     tile array. X grows east, Y grows north. These index fault maps,
//     network routes and the clock-forwarding graph.
//   - Physical coordinates (Point): micrometers on the wafer or on
//     a chiplet. These are used by the pad-ring floorplanner and the
//     substrate router.
package geom

import "fmt"

// Coord is an integer tile coordinate in the waferscale array.
type Coord struct {
	X, Y int
}

// C is shorthand for constructing a Coord.
func C(x, y int) Coord { return Coord{X: x, Y: y} }

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns the component-wise sum of c and d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

// Manhattan returns the Manhattan (L1) distance between c and d.
func (c Coord) Manhattan(d Coord) int {
	return abs(c.X-d.X) + abs(c.Y-d.Y)
}

// Dir is one of the four mesh directions. The zero value is North.
type Dir int

// The four mesh directions, in the order used by router ports.
const (
	North Dir = iota
	East
	South
	West
)

// NumDirs is the number of mesh directions.
const NumDirs = 4

// String returns the direction name.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Opposite returns the direction pointing the other way.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case East:
		return West
	case South:
		return North
	case West:
		return East
	}
	return d
}

// Delta returns the unit coordinate step for the direction.
func (d Dir) Delta() Coord {
	switch d {
	case North:
		return Coord{0, 1}
	case East:
		return Coord{1, 0}
	case South:
		return Coord{0, -1}
	case West:
		return Coord{-1, 0}
	}
	return Coord{}
}

// Dirs returns the four directions in canonical order. The slice is
// freshly allocated so callers may reorder it.
func Dirs() []Dir { return []Dir{North, East, South, West} }

// Step returns the coordinate one tile away from c in direction d.
func (c Coord) Step(d Dir) Coord { return c.Add(d.Delta()) }

// Neighbors returns the 4-neighborhood of c in canonical direction order.
func (c Coord) Neighbors() [4]Coord {
	return [4]Coord{c.Step(North), c.Step(East), c.Step(South), c.Step(West)}
}

// Point is a physical location in micrometers.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Manhattan returns the Manhattan distance between p and q in microns.
func (p Point) Manhattan(q Point) float64 {
	return absF(p.X-q.X) + absF(p.Y-q.Y)
}

// String renders the point with micron units.
func (p Point) String() string { return fmt.Sprintf("(%.2fum,%.2fum)", p.X, p.Y) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
