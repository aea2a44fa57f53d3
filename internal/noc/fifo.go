package noc

// pktFIFO is a fixed-capacity ring buffer of packets — one router input
// port's buffer. Capacity is SimConfig.FIFODepth; the switch allocator's
// credit accounting guarantees a push never lands on a full ring, so the
// buffer never reallocates and the cycle engine stays allocation-free.
// The backing storage is a slice of a per-network slab carved out in
// NewSim (one allocation for every FIFO of a mesh).
type pktFIFO struct {
	buf  []Packet
	head int // index of the oldest packet
	n    int // packets queued
}

// len returns the number of queued packets.
func (f *pktFIFO) len() int { return f.n }

// push appends a copy of *p at the tail. The caller has already checked
// space (FIFODepth credit or an explicit len() comparison); overflowing
// indicates a flow-control bug, so it panics loudly rather than
// corrupting the ring.
func (f *pktFIFO) push(p *Packet) {
	if f.n == len(f.buf) {
		panic("noc: FIFO overflow (credit accounting bug)")
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = *p
	f.n++
}

// drop removes the head packet; read it through front first.
func (f *pktFIFO) drop() {
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
}

// front returns a pointer to the head packet for in-place inspection or
// mutation (routing, CorruptPayload's head-of-queue bit-error
// semantics, traversal's copy-out before drop). The FIFO must be
// non-empty.
func (f *pktFIFO) front() *Packet { return &f.buf[f.head] }
