package noc

import (
	"fmt"

	"waferscale/internal/geom"
)

// ExpressInterval is the shipped express-link spacing: every tile whose
// relevant coordinate is a multiple of this carries a skip link of this
// length in that dimension. Fixed so the topology name alone identifies
// the link graph (serve cache keys depend on this).
const ExpressInterval = 4

// Express port layout: ports 0-3 are the ordinary unit mesh links,
// ports 4..7 are the express links toward geom.Dir(p-4), port 8 is
// local.
const (
	expressBase  = 4
	expressPorts = 2*geom.NumDirs + 1
)

// expressTopology is a mesh with express (skip) channels: on top of the
// full unit mesh, tiles at coordinates divisible by ExpressInterval
// carry extra length-ExpressInterval links that bypass the routers in
// between (Dally's express cubes). Long-haul packets ride the express
// lanes and pay one router traversal per ExpressInterval tiles; short
// traffic is untouched.
type expressTopology struct{ grid geom.Grid }

// NewExpressTopology builds the express mesh over a grid.
func NewExpressTopology(g geom.Grid) (Topology, error) {
	if g.W < 2 || g.H < 2 {
		return nil, fmt.Errorf("noc: express mesh needs a grid of at least 2x2, got %v", g)
	}
	return expressTopology{grid: g}, nil
}

// Name implements Topology.
func (expressTopology) Name() string { return TopoExpress }

// Grid implements Topology.
func (t expressTopology) Grid() geom.Grid { return t.grid }

// Ports implements Topology.
func (expressTopology) Ports() int { return expressPorts }

// Link implements Topology. An express link toward d exists when the
// coordinate along d's axis is a multiple of ExpressInterval and the
// far end (ExpressInterval tiles away) is in the grid; it arrives on
// the far tile's opposite express port.
func (t expressTopology) Link(c geom.Coord, p int) (geom.Coord, int, int, bool) {
	if p >= 0 && p < geom.NumDirs {
		d := geom.Dir(p)
		far := c.Step(d)
		if !t.grid.In(far) {
			return geom.Coord{}, 0, 0, false
		}
		return far, int(d.Opposite()), 1, true
	}
	if p < expressBase || p >= expressPorts-1 {
		return geom.Coord{}, 0, 0, false
	}
	d := geom.Dir(p - expressBase)
	along := c.Y
	if d == geom.East || d == geom.West {
		along = c.X
	}
	if along%ExpressInterval != 0 {
		return geom.Coord{}, 0, 0, false
	}
	dl := d.Delta()
	far := geom.C(c.X+ExpressInterval*dl.X, c.Y+ExpressInterval*dl.Y)
	if !t.grid.In(far) {
		return geom.Coord{}, 0, 0, false
	}
	return far, expressBase + int(d.Opposite()), ExpressInterval, true
}

// Policy implements Topology.
func (expressTopology) Policy() RoutingPolicy { return expressPolicy{} }

// expressPolicy is dimension-ordered routing that rides an express lane
// whenever one is available and productive: at a tile whose coordinate
// in the active dimension is a multiple of ExpressInterval with at
// least ExpressInterval tiles still to cover, take the skip link (it
// cannot overshoot and is guaranteed to exist); otherwise take the unit
// link. Movement stays strictly dimension-ordered and monotone, so the
// scheme inherits the mesh's deadlock freedom (TestRoutingDeadlockFree
// checks it).
type expressPolicy struct{}

// Route implements RoutingPolicy.
func (expressPolicy) Route(net Network, _, dst, cur geom.Coord, _ int) Ports {
	dx, dy := dst.X-cur.X, dst.Y-cur.Y
	if dx == 0 && dy == 0 {
		return onePort(expressPorts - 1) // local
	}
	xFirst := net == XY
	if (xFirst && dx != 0) || (!xFirst && dy == 0) {
		return onePort(expressHop(dx, cur.X, geom.East, geom.West))
	}
	return onePort(expressHop(dy, cur.Y, geom.North, geom.South))
}

// expressHop picks the port for one dimension: the express link toward
// the destination when the tile is on the express grid and the
// remaining distance covers a full skip, else the unit link.
func expressHop(delta, along int, pos, neg geom.Dir) int {
	d := pos
	if delta < 0 {
		d = neg
		delta = -delta
	}
	if along%ExpressInterval == 0 && delta >= ExpressInterval {
		return expressBase + int(d)
	}
	return int(d)
}
