package noc

// The input FIFOs of one network are fixed-capacity rings over one
// slab, meshNet.fifo, with FIFODepth entries per input slot
// tile*np+port, each the handle of a queued packet in the packet
// store. Each ring's head and length are in meshNet.q. The switch allocator's
// credit accounting guarantees a push never lands on a full ring, so
// no ring ever reallocates and the cycle engine stays allocation-free.

// ring is one input FIFO's position in its slot of the slab.
type ring struct {
	head int32 // index of the oldest entry
	n    int32 // entries queued
}

// front returns the slab index of the FIFO at slot's head entry; the
// FIFO must be non-empty.
func (mn *meshNet) front(slot int) int { return slot*mn.depth + int(mn.q[slot].head) }

// enqueue pushes handle h into the FIFO at (tile, port) and marks the
// port occupied and the tile busy. The caller has checked space and accounted the
// credit; overflowing indicates a flow-control bug, so it panics
// loudly rather than corrupting the ring.
func (mn *meshNet) enqueue(tile, port int, h int32) {
	slot := tile*mn.np + port
	q := &mn.q[slot]
	if int(q.n) == mn.depth {
		panic("noc: FIFO overflow (credit accounting bug)")
	}
	i := int(q.head + q.n)
	if i >= mn.depth {
		i -= mn.depth
	}
	mn.fifo[slot*mn.depth+i] = h
	q.n++
	mn.occ[tile] |= 1 << uint(port)
	mn.busy[tile>>6] |= 1 << uint(tile&63)
}

// dequeue pops the head handle of the FIFO at (tile, port), returning
// its credit and clearing the port's occupancy bit, and the tile's busy
// bit, when they empty.
func (mn *meshNet) dequeue(tile, port int) int32 {
	slot := tile*mn.np + port
	q := &mn.q[slot]
	h := mn.fifo[slot*mn.depth+int(q.head)]
	if q.head++; int(q.head) == mn.depth {
		q.head = 0
	}
	q.n--
	mn.credit[slot]--
	if q.n == 0 {
		if mn.occ[tile] &^= 1 << uint(port); mn.occ[tile] == 0 {
			mn.busy[tile>>6] &^= 1 << uint(tile&63)
		}
	}
	return h
}
