package noc

import "waferscale/internal/geom"

// RoutingPolicy decides which output ports a packet at cur may take.
// A packet is named by its route key alone: the network it rides, its
// source src and its destination dst. Every policy reads dst; src is
// passed because turn-model algorithms need the source column
// (OddEvenPolicy offers a vertical turn at the source). arrivalPort is
// the input port the packet sits in (the local port for freshly
// injected packets).
//
// Route returns the decision by value as Ports: the preferred port and
// the set of every port the packet may take. A policy must never
// return an empty set for an in-grid destination (the packet would
// wedge). The two halves serve different consumers. Single-path
// consumers (the analytical model and the connectivity analyzer)
// follow First, and a policy a Topology returns must pick First from
// (net, cur, dst) alone, with the local port only at dst (see the
// Topology contract). The switch allocator reads the set: it routes
// each head packet once per cycle and grants whichever port of the set
// wins arbitration and has credit.
//
// Route must be a pure function of its arguments: the switch allocator
// may call it in any order, and the Fig. 6 sweeps call a shared
// topology's policy from parallel.ForEach workers. Stateless policies — DoRPolicy, OddEvenPolicy and every
// shipped topology's policy — satisfy this trivially. Only this
// package can build a non-empty Ports, so a policy outside it can only
// delegate to the shipped ones.
type RoutingPolicy interface {
	Route(net Network, src, dst, cur geom.Coord, arrivalPort int) Ports
}

// Ports is one routing decision: a set of output ports (bit p of mask
// is port p) and the preferred one among them. Ports are below
// MaxPorts, so 16 bits hold any set.
type Ports struct {
	mask  uint16
	first uint8
}

// onePort is the decision with the single candidate p.
func onePort(p int) Ports { return Ports{mask: 1 << uint(p), first: uint8(p)} }

// twoPorts is the decision with candidates first and other, first
// preferred.
func twoPorts(first, other int) Ports {
	return Ports{mask: 1<<uint(first) | 1<<uint(other), first: uint8(first)}
}

// First returns the preferred port, or -1 when the set is empty.
func (p Ports) First() int {
	if p.mask == 0 {
		return -1
	}
	return int(p.first)
}

// DoRPolicy is the prototype's strict dimension-ordered routing: one
// legal output per packet per network (X-then-Y or Y-then-X).
type DoRPolicy struct{}

// Route returns the single DoR port.
func (DoRPolicy) Route(net Network, _, dst, cur geom.Coord, _ int) Ports {
	d, ok := NextHop(net, cur, dst)
	if !ok {
		return onePort(portLocal)
	}
	return onePort(int(d))
}

// OddEvenPolicy is the future-work adaptive scheme (Wu/Chiu odd-even
// turn model, paper footnote 4) run at packet level: minimal adaptive
// routing restricted by the odd-even turn rules — EN/ES turns banned
// in even columns, NW/SW turns banned in odd columns — which is
// deadlock-free without virtual channels (TestRoutingDeadlockFree
// checks it). Both physical networks run the same algorithm (the
// request/response split still prevents protocol deadlock).
//
// Route implements Chiu's ROUTE function, which guarantees a
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

// Route returns the legal minimal output ports. When two dimensions
// are productive, the one with more remaining hops is preferred
// (dimension balancing); the switch allocator takes whichever
// candidate has credit.
func (OddEvenPolicy) Route(_ Network, src, dst, cur geom.Coord, _ int) Ports {
	e0 := dst.X - cur.X
	e1 := dst.Y - cur.Y
	if e0 == 0 && e1 == 0 {
		return onePort(portLocal)
	}
	vertical := portN
	if e1 < 0 {
		vertical = portS
	}
	switch {
	case e0 == 0:
		return onePort(vertical)
	case e0 > 0: // eastbound
		if e1 == 0 {
			return onePort(portE)
		}
		if dst.X%2 == 0 && e0 == 1 {
			// cur.X = dst.X-1 is odd, so the vertical move is offered.
			return onePort(vertical)
		}
		if cur.X%2 == 0 && cur.X != src.X {
			return onePort(portE)
		}
		return balanced(portE, vertical, e0, e1)
	default: // westbound
		if e1 != 0 && cur.X%2 == 0 {
			return balanced(portW, vertical, e0, e1)
		}
		return onePort(portW)
	}
}

// balanced offers a horizontal and a vertical move, the dimension with
// more remaining hops (e0 horizontal, e1 vertical) first and ties to
// the vertical one.
func balanced(horizontal, vertical, e0, e1 int) Ports {
	if abs(e0) > abs(e1) {
		return twoPorts(horizontal, vertical)
	}
	return twoPorts(vertical, horizontal)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
