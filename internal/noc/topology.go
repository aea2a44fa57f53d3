package noc

import (
	"fmt"
	"strings"

	"waferscale/internal/geom"
)

// Topology is the first-class description of the wafer's link graph:
// how many ports each router has, which (tile, port) pairs are wired
// together, how long each link is, and the deterministic routing
// policy that drives packets over it. The cycle engine (Sim), the
// closed-form model (noc/analytical) and the connectivity Monte Carlo
// all consume the same graph, so a topology plugged in here is
// automatically simulated, modeled and swept.
//
// Contract:
//
//   - Implementations are immutable after construction. The Fig. 6
//     sweeps share one topology value across parallel.ForEach workers,
//     so Link and Policy().Route must be safe for lock-free
//     concurrent use — in practice, pure functions of the receiver's
//     construction-time fields. This binds every policy a Topology
//     returns.
//   - Every link is bidirectional with consistent endpoints: if
//     Link(c, p) = (d, q, n, true) then Link(d, q) = (c, p, n, true).
//   - At most one link arrives at each (tile, port): distinct (c, p)
//     map to distinct (d, q). Each (tile, port) input FIFO and its
//     credit counter have exactly one upstream link, so
//     NewSimTopology validates this at construction.
//   - The local inject/eject port is always Ports()-1 and carries no
//     link.
//   - Routing is destination-driven: the policy's preferred port
//     (Ports.First) depends only on (network, current tile,
//     destination) — never on the packet's source or arrival port —
//     and it is the local port at the destination and nowhere else.
//     The routes toward one destination then form an in-tree, which
//     TopoAnalyzer walks backwards from the faulty tiles and the
//     analytical model's in-tree build aggregates over.
//
// These invariants are exercised for every shipped topology by the
// invariant and fuzz tests in topology_invariants_test.go
// (TestTopologyNextHopSourceFree checks the routing one).
type Topology interface {
	// Name is the normalized topology identifier (one of
	// TopologyNames).
	Name() string
	// Grid returns the tile array the topology is built over.
	Grid() geom.Grid
	// Ports returns the number of router ports including the local
	// inject/eject port (always the last index). It must not exceed
	// MaxPorts.
	Ports() int
	// Link resolves the link leaving tile c through port p: the far
	// tile, the input port the packet arrives on there, and the link
	// length in mesh-hop units (multiplies SimConfig.LinkLatency).
	// ok is false when c has no link on p (edge of the array, or a
	// port the tile does not populate).
	Link(c geom.Coord, p int) (dst geom.Coord, arrivalPort int, length int, ok bool)
	// Policy returns the topology's deterministic routing policy. It
	// must never return an empty port set for an in-grid destination,
	// and every candidate port other than the local port must carry a
	// link wherever the policy emits it.
	Policy() RoutingPolicy
}

// MaxPorts bounds Ports() for any topology, letting a port set fit in
// 16 bits and the switch allocator keep its per-router scratch on the
// stack.
const MaxPorts = 16

// The normalized topology names.
const (
	// TopoMesh is the prototype's dual dimension-ordered 2-D mesh
	// (paper Section VI) — the reference topology every other one is
	// differentially tested against.
	TopoMesh = "mesh"
	// TopoCMesh is a concentrated mesh: tiles are grouped into
	// CMeshConcentration x CMeshConcentration blocks whose corner tile
	// is the block's router hub; hubs form a coarse mesh with
	// length-CMeshConcentration links.
	TopoCMesh = "cmesh"
	// TopoExpress is a mesh with express (skip) links: every
	// ExpressInterval-th row and column additionally carries
	// length-ExpressInterval links that bypass the tiles in between.
	TopoExpress = "express"
	// TopoVertical is the wafer-on-wafer topology of Iff et al.: the
	// grid is folded into two stacked layers (bottom = lower half of
	// the rows) joined by short hybrid-bonded vertical links, so long
	// north-south spans become one vertical hop.
	TopoVertical = "vertical"
)

// TopologyNames lists the shipped topologies in canonical order.
func TopologyNames() []string {
	return []string{TopoMesh, TopoCMesh, TopoExpress, TopoVertical}
}

// NormalizeTopology canonicalizes a topology name: trims, lowercases,
// and maps the empty string to the mesh default. Unknown names are an
// error.
func NormalizeTopology(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return TopoMesh, nil
	}
	for _, t := range TopologyNames() {
		if n == t {
			return n, nil
		}
	}
	return "", fmt.Errorf("noc: unknown topology %q (want one of %s)",
		name, strings.Join(TopologyNames(), "|"))
}

// NewTopology builds the named topology over a grid ("" = mesh). The
// shipped parameterizations are fixed — CMesh concentrates 2x2 blocks,
// express links skip 4 tiles — so a normalized name fully identifies
// the link graph (which is what lets serve cache-key results by name).
func NewTopology(name string, g geom.Grid) (Topology, error) {
	n, err := NormalizeTopology(name)
	if err != nil {
		return nil, err
	}
	if g.W < 2 || g.H < 2 {
		return nil, fmt.Errorf("noc: topology %q needs a grid of at least 2x2, got %v", n, g)
	}
	switch n {
	case TopoMesh:
		return MeshTopology(g), nil
	case TopoCMesh:
		return NewCMeshTopology(g)
	case TopoExpress:
		return NewExpressTopology(g)
	case TopoVertical:
		return NewVerticalTopology(g)
	}
	return nil, fmt.Errorf("noc: unknown topology %q", name)
}

// meshTopology is the reference implementation: the classic 2-D mesh
// with one unit-length link per direction and strict dimension-ordered
// routing. NewSimTopology with a nil topology uses it, which is what
// keeps every pre-topology caller bit-identical.
type meshTopology struct{ grid geom.Grid }

// MeshTopology returns the dual-DoR 2-D mesh over a grid.
func MeshTopology(g geom.Grid) Topology { return meshTopology{grid: g} }

// Name implements Topology.
func (meshTopology) Name() string { return TopoMesh }

// Grid implements Topology.
func (m meshTopology) Grid() geom.Grid { return m.grid }

// Ports implements Topology: the four directions plus local.
func (meshTopology) Ports() int { return numPorts }

// Link implements Topology: port p < 4 is the unit link toward
// geom.Dir(p), arriving on the opposite direction port.
func (m meshTopology) Link(c geom.Coord, p int) (geom.Coord, int, int, bool) {
	if p < 0 || p >= geom.NumDirs {
		return geom.Coord{}, 0, 0, false
	}
	d := geom.Dir(p)
	far := c.Step(d)
	if !m.grid.In(far) {
		return geom.Coord{}, 0, 0, false
	}
	return far, int(d.Opposite()), 1, true
}

// Policy implements Topology: strict dimension-ordered routing.
func (meshTopology) Policy() RoutingPolicy { return DoRPolicy{} }
