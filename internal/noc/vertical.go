package noc

import (
	"fmt"

	"waferscale/internal/geom"
)

// Vertical (wafer-on-wafer) port layout: ports 0-3 are the intra-layer
// mesh links, port verticalPortZ is the hybrid-bonded link to the
// tile's partner on the other wafer, port 5 is local.
const (
	verticalPortZ = 4
	verticalPorts = 6
)

// verticalTopology is the wafer-on-wafer topology of Iff et al.
// ("Network Design for Wafer-Scale Systems with Wafer-on-Wafer Hybrid
// Bonding"): the logical W x H array is folded into two stacked
// W x H/2 wafers — rows [0, H/2) are the bottom wafer, rows [H/2, H)
// the top — each running its own 2-D mesh, joined by short
// hybrid-bonded vertical links between vertically aligned tiles. A
// span of H/2 rows in the flat mesh becomes a single vertical hop, so
// worst-case north-south distance halves.
type verticalTopology struct {
	grid   geom.Grid
	layerH int // rows per wafer = H/2
}

// NewVerticalTopology builds the two-layer wafer-on-wafer topology
// over a grid; the row count must be even so the fold is exact.
func NewVerticalTopology(g geom.Grid) (Topology, error) {
	if g.H%2 != 0 {
		return nil, fmt.Errorf("noc: vertical topology folds the grid into two layers and needs an even row count, got %v", g)
	}
	if g.W < 2 || g.H < 2 {
		return nil, fmt.Errorf("noc: vertical topology needs a grid of at least 2x2, got %v", g)
	}
	return verticalTopology{grid: g, layerH: g.H / 2}, nil
}

// Name implements Topology.
func (verticalTopology) Name() string { return TopoVertical }

// Grid implements Topology.
func (t verticalTopology) Grid() geom.Grid { return t.grid }

// Ports implements Topology.
func (verticalTopology) Ports() int { return verticalPorts }

// Link implements Topology. Mesh links never cross the fold (a
// north-south link between rows layerH-1 and layerH would join the two
// wafers edge-to-edge, which the stacking replaces); the vertical port
// joins each tile to the tile directly above/below it on the other
// wafer with a unit-length hybrid-bonded link.
func (t verticalTopology) Link(c geom.Coord, p int) (geom.Coord, int, int, bool) {
	if p >= 0 && p < geom.NumDirs {
		d := geom.Dir(p)
		far := c.Step(d)
		if !t.grid.In(far) || c.Y/t.layerH != far.Y/t.layerH {
			return geom.Coord{}, 0, 0, false
		}
		return far, int(d.Opposite()), 1, true
	}
	if p != verticalPortZ {
		return geom.Coord{}, 0, 0, false
	}
	far := geom.C(c.X, c.Y+t.layerH)
	if c.Y >= t.layerH {
		far = geom.C(c.X, c.Y-t.layerH)
	}
	return far, verticalPortZ, 1, true
}

// Policy implements Topology.
func (t verticalTopology) Policy() RoutingPolicy { return verticalPolicy{layerH: t.layerH} }

// verticalPolicy is dimension-ordered routing with the vertical hop
// last (XYZ on the XY network, YXZ on the YX network): a packet for the
// other wafer first routes within its own layer to the tile directly
// above/below the destination, then takes the single vertical hop. The
// strict X -> Y -> Z (resp. Y -> X -> Z) channel order is acyclic, so
// the scheme is deadlock-free (TestRoutingDeadlockFree checks it).
type verticalPolicy struct{ layerH int }

// Candidates implements RoutingPolicy.
func (v verticalPolicy) Candidates(net Network, _, dst, cur geom.Coord, _ int, buf []int) int {
	if cur == dst {
		buf[0] = verticalPorts - 1 // local
		return 1
	}
	// Target row within cur's layer: the destination itself when it is
	// on this wafer, else its vertical partner.
	ty := dst.Y%v.layerH + cur.Y/v.layerH*v.layerH
	dx, dy := dst.X-cur.X, ty-cur.Y
	if dx == 0 && dy == 0 {
		buf[0] = verticalPortZ // aligned under/over the destination
		return 1
	}
	xFirst := net == XY
	if (xFirst && dx != 0) || (!xFirst && dy == 0) {
		if dx > 0 {
			buf[0] = int(geom.East)
		} else {
			buf[0] = int(geom.West)
		}
	} else {
		if dy > 0 {
			buf[0] = int(geom.North)
		} else {
			buf[0] = int(geom.South)
		}
	}
	return 1
}
