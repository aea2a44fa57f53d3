package noc

import "waferscale/internal/geom"

// RoutingPolicy decides which output ports a packet at cur may take,
// in preference order. A packet is named by its route key alone: the
// network it rides, its source src and its destination dst. The
// switch allocator keeps that key in a compact per-handle record, so
// routing a head packet never loads the packet itself. Every policy
// reads dst; src is passed because turn-model algorithms need the
// source column (OddEvenPolicy offers a vertical turn at the source).
// arrivalPort is the input port the packet sits in (the local port for
// freshly injected packets).
//
// Candidates writes the ports into buf — a caller-provided scratch of
// at least MaxPorts entries — and returns how many it wrote, so the
// switch allocator's inner loop allocates nothing. A policy must never
// return 0 for an in-grid destination (the packet would wedge). The
// preference order matters to single-path consumers (the analytical
// model and the connectivity analyzer follow buf[0], and a policy a
// Topology returns must pick buf[0] from (net, cur, dst) alone, with
// the local port only at dst — see the Topology contract); the switch
// allocator treats the result as a set, routes each head packet once
// per cycle, and grants whichever candidate port wins arbitration and
// has credit.
//
// Candidates must be a pure function of its arguments: the switch
// allocator may call it in any order, and the Fig. 6 sweeps call a
// shared topology's policy from parallel.ForEach workers (each with its
// own buf). Stateless policies — DoRPolicy, OddEvenPolicy and every
// shipped topology's policy — satisfy this trivially.
type RoutingPolicy interface {
	Candidates(net Network, src, dst, cur geom.Coord, arrivalPort int, buf []int) int
}

// DoRPolicy is the prototype's strict dimension-ordered routing: one
// legal output per packet per network (X-then-Y or Y-then-X).
type DoRPolicy struct{}

// Candidates writes the single DoR port.
func (DoRPolicy) Candidates(net Network, _, dst, cur geom.Coord, _ int, buf []int) int {
	d, ok := NextHop(net, cur, dst)
	if !ok {
		buf[0] = portLocal
		return 1
	}
	buf[0] = int(d)
	return 1
}

// OddEvenPolicy is the future-work adaptive scheme (Wu/Chiu odd-even
// turn model, paper footnote 4) run at packet level: minimal adaptive
// routing restricted by the odd-even turn rules — EN/ES turns banned
// in even columns, NW/SW turns banned in odd columns — which is
// deadlock-free without virtual channels (TestRoutingDeadlockFree
// checks it). Both physical networks run the same algorithm (the
// request/response split still prevents protocol deadlock).
//
// Candidates implements Chiu's ROUTE function, which guarantees a
// non-empty legal minimal set at every hop:
//
//   - same column (e0 = 0): continue vertically;
//   - eastbound: a vertical move is offered only in odd columns or at
//     the source (no turn happens at injection); the east move is
//     withheld when one hop from an even destination column, forcing
//     the mandatory turn to happen in the preceding odd column;
//   - westbound: west is always offered; vertical moves only in even
//     columns so the later N->W / S->W turn is legal.
type OddEvenPolicy struct{}

// Candidates writes the legal minimal output ports into buf. When two
// dimensions are productive, the one with more remaining hops is
// preferred (dimension balancing); the switch allocator takes whichever
// candidate has credit.
func (OddEvenPolicy) Candidates(_ Network, src, dst, cur geom.Coord, _ int, buf []int) int {
	e0 := dst.X - cur.X
	e1 := dst.Y - cur.Y
	if e0 == 0 && e1 == 0 {
		buf[0] = portLocal
		return 1
	}
	vertical := portN
	if e1 < 0 {
		vertical = portS
	}
	n := 0
	switch {
	case e0 == 0:
		buf[n] = vertical
		n++
	case e0 > 0: // eastbound
		if e1 == 0 {
			buf[n] = portE
			n++
		} else {
			if cur.X%2 == 1 || cur.X == src.X {
				buf[n] = vertical
				n++
			}
			if dst.X%2 == 1 || e0 != 1 {
				buf[n] = portE
				n++
			}
		}
	default: // westbound
		buf[n] = portW
		n++
		if e1 != 0 && cur.X%2 == 0 {
			buf[n] = vertical
			n++
		}
	}
	// Dimension balancing: put the longer dimension first.
	if n == 2 {
		dx, dy := abs(e0), abs(e1)
		firstVertical := buf[0] == portN || buf[0] == portS
		if (dx > dy) == firstVertical {
			buf[0], buf[1] = buf[1], buf[0]
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
