package noc

import (
	"fmt"

	"waferscale/internal/geom"
)

// CMeshConcentration is the shipped concentration factor: tiles are
// grouped into 2x2 blocks sharing one routed hub. The value is fixed so
// the topology name alone identifies the link graph (serve cache keys
// depend on this).
const CMeshConcentration = 2

// CMesh port layout. Ports 0-3 are the hub-to-hub mesh directions
// (length-CMeshConcentration links between block origins); ports
// 4..6 are the hub's spokes to its up-to-three leaves; on a leaf,
// port cmeshUp (= 4) is its single uplink to the hub; port 7 is local.
const (
	cmeshUp    = 4
	cmeshPorts = 4 + CMeshConcentration*CMeshConcentration // 4 dirs + 3 spokes + local
)

// cmeshTopology is a concentrated mesh (CMesh): the grid is tiled by
// CMeshConcentration^2 blocks whose origin tile is the block's hub.
// Hubs form a coarse mesh of length-CMeshConcentration links; the other
// tiles of a block ("leaves") hang off their hub by unit-length spokes.
// Concentration quarters the number of routed hops for far traffic at
// the price of halved bisection links — the classic CMesh trade
// (Balfour & Dally, ICS'06) the uPIMulator cosim measured on PIM
// workloads. Partial blocks at ragged grid edges simply have fewer
// leaves.
type cmeshTopology struct{ grid geom.Grid }

// NewCMeshTopology builds the concentrated mesh over a grid.
func NewCMeshTopology(g geom.Grid) (Topology, error) {
	if g.W < CMeshConcentration || g.H < CMeshConcentration {
		return nil, fmt.Errorf("noc: cmesh needs a grid of at least %dx%d, got %v",
			CMeshConcentration, CMeshConcentration, g)
	}
	return cmeshTopology{grid: g}, nil
}

// cmeshHubOf returns the hub (block origin) of the block containing c.
func cmeshHubOf(c geom.Coord) geom.Coord {
	const k = CMeshConcentration
	return geom.C(c.X/k*k, c.Y/k*k)
}

// cmeshLeafOffset maps spoke index j (0..k*k-2) to the leaf's offset
// within the block, skipping the hub's own (0,0) slot.
func cmeshLeafOffset(j int) geom.Coord {
	const k = CMeshConcentration
	return geom.C((j+1)%k, (j+1)/k)
}

// cmeshLeafIndex is the inverse of cmeshLeafOffset for a leaf tile.
func cmeshLeafIndex(leaf, hub geom.Coord) int {
	const k = CMeshConcentration
	return (leaf.Y-hub.Y)*k + (leaf.X - hub.X) - 1
}

// Name implements Topology.
func (cmeshTopology) Name() string { return TopoCMesh }

// Grid implements Topology.
func (t cmeshTopology) Grid() geom.Grid { return t.grid }

// Ports implements Topology.
func (cmeshTopology) Ports() int { return cmeshPorts }

// Link implements Topology. Hubs carry the direction ports (0-3,
// length CMeshConcentration, hub to hub) and the spoke ports (4..,
// length 1, arriving on the leaf's cmeshUp port); leaves carry only
// their uplink on cmeshUp, arriving on the hub's matching spoke port.
func (t cmeshTopology) Link(c geom.Coord, p int) (geom.Coord, int, int, bool) {
	const k = CMeshConcentration
	hub := cmeshHubOf(c)
	if c == hub {
		switch {
		case p >= 0 && p < geom.NumDirs:
			d := geom.Dir(p).Delta()
			far := geom.C(c.X+k*d.X, c.Y+k*d.Y)
			if !t.grid.In(far) {
				return geom.Coord{}, 0, 0, false
			}
			return far, int(geom.Dir(p).Opposite()), k, true
		case p >= cmeshUp && p < cmeshPorts-1:
			leaf := c.Add(cmeshLeafOffset(p - cmeshUp))
			if !t.grid.In(leaf) {
				return geom.Coord{}, 0, 0, false
			}
			return leaf, cmeshUp, 1, true
		}
		return geom.Coord{}, 0, 0, false
	}
	if p != cmeshUp {
		return geom.Coord{}, 0, 0, false
	}
	return hub, cmeshUp + cmeshLeafIndex(c, hub), 1, true
}

// Policy implements Topology.
func (t cmeshTopology) Policy() RoutingPolicy { return cmeshPolicy{} }

// cmeshPolicy routes up-over-down: a leaf always climbs to its hub,
// hubs run strict dimension-ordered routing over the hub mesh (X-first
// on XY, Y-first on YX), and the destination's hub descends the spoke.
// The uplink -> DoR -> downlink channel order is acyclic, so the scheme
// is deadlock-free like the reference mesh (TestRoutingDeadlockFree
// checks it).
type cmeshPolicy struct{}

// Route implements RoutingPolicy.
func (cmeshPolicy) Route(net Network, _, dst, cur geom.Coord, _ int) Ports {
	if cur == dst {
		return onePort(cmeshPorts - 1) // local
	}
	hub := cmeshHubOf(cur)
	if cur != hub {
		return onePort(cmeshUp)
	}
	dhub := cmeshHubOf(dst)
	if dhub == cur {
		return onePort(cmeshUp + cmeshLeafIndex(dst, dhub))
	}
	dx, dy := dhub.X-cur.X, dhub.Y-cur.Y
	return onePort(int(cmeshDir(net, dx, dy)))
}

// cmeshDir picks the dimension-ordered direction over the hub mesh.
func cmeshDir(net Network, dx, dy int) geom.Dir {
	xFirst := net == XY
	if (xFirst && dx != 0) || (!xFirst && dy == 0) {
		if dx > 0 {
			return geom.East
		}
		return geom.West
	}
	if dy > 0 {
		return geom.North
	}
	return geom.South
}
