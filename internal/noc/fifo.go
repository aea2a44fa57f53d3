package noc

// pktFIFO is a fixed-capacity ring buffer of packet handles — one
// router input port's buffer. The packets themselves live in the
// simulator's arena (Sim.pkts); a ring moves 4-byte handles into it.
// Capacity is SimConfig.FIFODepth; the switch allocator's credit
// accounting guarantees a push never lands on a full ring, so the
// buffer never reallocates and the cycle engine stays allocation-free.
// The backing storage is a slice of the per-network handle slab
// (meshNet.slab, one allocation for every FIFO of a mesh).
type pktFIFO struct {
	buf  []int32
	head int // index of the oldest handle
	n    int // handles queued
}

// len returns the number of queued packets.
func (f *pktFIFO) len() int { return f.n }

// push appends handle h at the tail. The caller has already checked
// space (FIFODepth credit or an explicit len() comparison); overflowing
// indicates a flow-control bug, so it panics loudly rather than
// corrupting the ring.
func (f *pktFIFO) push(h int32) {
	if f.n == len(f.buf) {
		panic("noc: FIFO overflow (credit accounting bug)")
	}
	f.buf[f.at(f.n)] = h
	f.n++
}

// drop removes the head handle; read it through front first.
func (f *pktFIFO) drop() {
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
}

// front returns the head packet's handle — for routing,
// CorruptPayload's head-of-queue bit-error semantics and traversal.
// The FIFO must be non-empty.
func (f *pktFIFO) front() int32 { return f.buf[f.head] }

// at returns the ring index of the k-th queued handle (0 = head).
func (f *pktFIFO) at(k int) int {
	i := f.head + k
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	return i
}
