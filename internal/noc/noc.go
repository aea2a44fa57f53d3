// Package noc implements the waferscale inter-tile network of the
// prototype (paper Section VI): a 2-D mesh with dimension-ordered
// routing (DoR), made fault-tolerant by instantiating two independent
// physical networks — one routed X-then-Y, the other Y-then-X — so that
// most tile pairs have two disjoint paths. Request/response traffic is
// paired onto complementary networks (a request sent X-Y gets its
// response Y-X along the same tiles in reverse), which guarantees
// two-way communication whenever one clear path exists and avoids
// request/response deadlock.
//
// The package provides three views of the network:
//
//   - Path-level analysis (Analyzer, TopoAnalyzer): O(1)-per-pair
//     connectivity checks against a fault map; this powers the paper's
//     Fig. 6 Monte Carlo.
//   - Kernel-level policy (Kernel): the fault-map-driven network
//     selection, load balancing and intermediate-tile detours that the
//     paper assigns to system software.
//   - A cycle-level packet simulator (Sim) with input-buffered routers,
//     credit flow control and asynchronous-FIFO link latency, used to
//     validate deadlock freedom, in-order delivery per pair, and to
//     carry the shared-memory traffic of the functional simulator.
package noc

import (
	"fmt"

	"waferscale/internal/geom"
)

// Network identifies one of the two independent DoR networks (Fig. 7).
type Network int

// The two physical networks.
const (
	// XY routes packets fully in X first, then in Y.
	XY Network = iota
	// YX routes packets fully in Y first, then in X.
	YX
)

// String returns the network name.
func (n Network) String() string {
	if n == XY {
		return "X-Y"
	}
	return "Y-X"
}

// Complement returns the other network — responses travel on the
// complement of the request network (baked into the router hardware).
func (n Network) Complement() Network { return 1 - n }

// NextHop returns the direction a DoR router forwards a packet destined
// to dst from cur on the given network, or ok=false when cur == dst
// (the packet ejects locally).
func NextHop(net Network, cur, dst geom.Coord) (geom.Dir, bool) {
	if cur == dst {
		return 0, false
	}
	if net == XY {
		if cur.X < dst.X {
			return geom.East, true
		}
		if cur.X > dst.X {
			return geom.West, true
		}
	} else {
		if cur.Y < dst.Y {
			return geom.North, true
		}
		if cur.Y > dst.Y {
			return geom.South, true
		}
	}
	// First dimension resolved; move in the second.
	if net == XY {
		if cur.Y < dst.Y {
			return geom.North, true
		}
		return geom.South, true
	}
	if cur.X < dst.X {
		return geom.East, true
	}
	return geom.West, true
}

// SameRowOrColumn reports whether two tiles share a row or column — the
// pairs for which the X-Y and Y-X routes coincide, i.e. the pairs that
// keep a single path even with two networks (the residual disconnected
// pairs in Fig. 6).
func SameRowOrColumn(a, b geom.Coord) bool {
	return a.X == b.X || a.Y == b.Y
}

// validatePair checks endpoints against a grid.
func validatePair(g geom.Grid, src, dst geom.Coord) error {
	if !g.In(src) {
		return fmt.Errorf("noc: source %v outside %v", src, g)
	}
	if !g.In(dst) {
		return fmt.Errorf("noc: destination %v outside %v", dst, g)
	}
	return nil
}
