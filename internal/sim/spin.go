package sim

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// Spin fast-forward. A chaos trial whose BFS workers lost a tile never
// passes the barrier: the survivors spin on shared flags until the
// cycle budget expires. A few hundred cycles after the last memory
// write such a machine is exactly periodic, so RunCtx finds the period
// and skips whole periods toward the budget, with output bit-identical
// to stepping every cycle.
//
//   - When it runs. Until every scheduled fault event has fired and no
//     core has changed memory for 64·(W+H) cycles — the default remote
//     timeout — the detector is unarmed and costs RunCtx one comparison
//     per cycle. A write that changes memory disarms it.
//   - Detection. Armed, it encodes everything but memory (which the
//     quiet period keeps fixed) canonically, appendSpinState, at the
//     start of every step rotation (a period is a whole number of
//     rotations), and runs Nivasch's stack algorithm over the
//     encodings' hashes. Brent's two-buffer search was tried first; it
//     finds a period λ only once its power of two passes λ, which on
//     the benchmark's 30030-cycle spins came too late to skip anything.
//     A search that has run twice as long as the budget it has left
//     stops: any period it could still find is too long to skip.
//   - The jump. A period is taken only when it retried no remote op,
//     stopped no core and left memory unchanged. Whole periods up to
//     the budget are skipped: absolute times, live tags and packet IDs
//     move by the periods' worth, every additive counter gains that
//     many times its per-period delta, and the stride Progress calls of
//     the skipped cycles are made. The remainder is stepped.

// spinDetector is the fast-forward's state; RunCtx resets it on entry.
type spinDetector struct {
	// off disables the fast-forward, for differential tests.
	off bool
	// quiet is the unchanged-memory span that arms the detector; it is
	// math.MaxInt64 once this run has taken its jump or ruled one out.
	quiet int64
	// stacks are the detector's armed state: Nivasch's stack algorithm
	// over the state hashes, partitioned by the hash's top bits. Each
	// stack holds entries of increasing hash; a state whose hash meets
	// an equal one on top of its stack, with an equal encoding, has
	// recurred. A spin of period λ entered at μ is found by cycle μ+2λ
	// at the latest, and near μ+λ(1+1/len(stacks)) on average, while the
	// stacks hold O(log λ) entries each.
	stacks [spinStacks][]*spinEntry
	armed  bool         // some stack holds an entry
	since  int64        // the cycle the detector armed at
	target int64        // the cycle this run's budget ends at
	free   []*spinEntry // released entries, for reuse
	encLen int          // the last encoding's length, to size new entries
	// match is the entry the current state recurs from.
	match *spinEntry
	// counters holds spinCounters and running the running-core count
	// from when the detector armed: a core stopping disarms it.
	counters []*int64
	running  int
	cores    []*Core // runningCores' buffer
	// stepped counts the cycles RunCtx stepped, skipped ones not included.
	stepped int64
}

// spinStacks is the number of partitions of the stack algorithm; a
// state's partition is the top spinStackBits of its hash.
const (
	spinStackBits = 3
	spinStacks    = 1 << spinStackBits
)

// spinEntry is one state the detector keeps: its hash and encoding,
// the cycle it was seen at, and what a jump from it extrapolates from.
type spinEntry struct {
	hash     uint64
	cycle    int64
	enc      []uint32
	tagSeq   uint32
	timedOut int64
	net      noc.SimStats
	counters []int64 // the values of spinDetector.counters
}

// reset disarms the detector at the start of a run ending at target.
func (d *spinDetector) reset(m *Machine, target int64) {
	d.disarm()
	d.target = target
	d.quiet = int64(64 * (m.grid.W + m.grid.H))
	if d.off {
		d.quiet = math.MaxInt64
	}
}

// disarm releases every kept state.
func (d *spinDetector) disarm() {
	d.armed = false
	for i := range d.stacks {
		d.free = append(d.free, d.stacks[i]...)
		d.stacks[i] = d.stacks[i][:0]
	}
}

// spinPeriod is RunCtx's check after a step on an armed detector or a
// quiet machine (memory unchanged for m.spin.quiet cycles and no fault
// event pending): it disarms the detector when the machine is no longer
// quiet, and otherwise runs one step of the stack algorithm at a
// rotation's start. It returns the period of a spin the machine has
// entered, with its start in m.spin.match, or 0.
func (m *Machine) spinPeriod(quiet bool) int64 {
	d := &m.spin
	if !quiet || d.armed && m.running != d.running {
		d.disarm()
	}
	if !quiet {
		return 0
	}
	// A period is a whole number of step rotations, so the states at the
	// rotation's start hold every recurrence.
	if m.cycle%int64(m.Cfg.CoresPerTile) != 0 {
		return 0
	}
	var e *spinEntry
	if n := len(d.free); n > 0 {
		e, d.free = d.free[n-1], d.free[:n-1]
	} else {
		e = &spinEntry{enc: make([]uint32, 0, d.encLen+d.encLen/8)}
	}
	e.enc = m.appendSpinState(e.enc[:0])
	d.encLen = len(e.enc)
	e.hash, e.cycle = spinHash(e.enc), m.cycle
	s := &d.stacks[e.hash>>(64-spinStackBits)]
	for len(*s) > 0 && (*s)[len(*s)-1].hash > e.hash {
		d.free = append(d.free, (*s)[len(*s)-1])
		*s = (*s)[:len(*s)-1]
	}
	if n := len(*s); n > 0 && (*s)[n-1].hash == e.hash && slices.Equal((*s)[n-1].enc, e.enc) {
		d.free = append(d.free, e)
		top := (*s)[n-1]
		if m.degr.TimedOutOps != top.timedOut {
			// A retry's jitter reads absolute cycles and tags.
			d.disarm()
			return 0
		}
		// Equal encodings list the same running cores, so none stopped.
		d.match, d.quiet = top, math.MaxInt64
		return m.cycle - top.cycle
	}
	if !d.armed {
		d.armed, d.since, d.running = true, m.cycle, m.running
		d.counters = m.spinCounters(d.counters[:0])
	} else if d.target-m.cycle <= (m.cycle-d.since)/2 {
		// Nothing recurred within twice the budget left: a period that
		// began before the search is longer than that budget, too long
		// to skip, so the search stops for this run.
		d.free = append(d.free, e)
		d.disarm()
		d.quiet = math.MaxInt64
		return 0
	}
	e.tagSeq, e.timedOut, e.net = m.tagSeq, m.degr.TimedOutOps, m.net.Stats()
	e.counters = e.counters[:0]
	for _, p := range d.counters {
		e.counters = append(e.counters, *p)
	}
	*s = append(*s, e)
	return 0
}

// spinHash mixes a state encoding into the stack algorithm's value:
// four independent multiply-rotate lanes, then an avalanche.
func spinHash(w []uint32) uint64 {
	const p1, p2 = 0x9e3779b185ebca87, 0xc2b2ae3d27d4eb4f
	round := func(acc, x uint64) uint64 { return bits.RotateLeft64(acc+x*p2, 31) * p1 }
	word := func(i int) uint64 { return uint64(w[i]) | uint64(w[i+1])<<32 }
	h := [4]uint64{p1, p2, 1, uint64(len(w))}
	for ; len(w) >= 8; w = w[8:] {
		h[0], h[1], h[2], h[3] = round(h[0], word(0)), round(h[1], word(2)), round(h[2], word(4)), round(h[3], word(6))
	}
	for _, x := range w {
		h[0] = round(h[0], uint64(x))
	}
	z := bits.RotateLeft64(h[0], 1) + bits.RotateLeft64(h[1], 7) + bits.RotateLeft64(h[2], 12) + bits.RotateLeft64(h[3], 18)
	z = (z ^ z>>33) * p2
	z = (z ^ z>>29) * p1
	return z ^ z>>32
}

// spinCounters appends to ps every int64 counter of the machine, its
// running cores and its degradation report that a spin can move. The
// counters a spin cannot move are left out: a stopped core's, and the
// rest of the report, which changes only on fault events, retries and
// stopping cores. TestSpinCountersCovered keeps the split complete.
func (m *Machine) spinCounters(ps []*int64) []*int64 {
	ps = append(ps, &m.RemoteRequests, &m.RemoteLatency, &m.BankConflicts,
		&m.degr.RelayedRequests, &m.degr.RelayedResponses, &m.degr.DroppedResponses, &m.degr.DroppedForwards)
	for _, c := range m.runningCores() {
		ps = append(ps, &c.Instret, &c.StallFixed, &c.StallRemote, &c.RetryCycles)
	}
	return ps
}

// advanceNetStats extrapolates network statistics k periods past now,
// given their value then, one period earlier. MaxLatency is a maximum
// over periods that repeat, and the fault and timeout counters move
// only on the events and retries a jump excludes.
func advanceNetStats(now, then noc.SimStats, k int64) noc.SimStats {
	n := int(k)
	now.Injected += n * (now.Injected - then.Injected)
	now.Delivered += n * (now.Delivered - then.Delivered)
	now.Dropped += n * (now.Dropped - then.Dropped)
	now.TotalLatency += k * (now.TotalLatency - then.TotalLatency)
	now.TotalHops += n * (now.TotalHops - then.TotalHops)
	now.DroppedInFlight += n * (now.DroppedInFlight - then.DroppedInFlight)
	now.Forwarded += n * (now.Forwarded - then.Forwarded)
	return now
}

// appendSpinState appends the canonical encoding of the machine's state
// but memory to w, as 32-bit words: the step rotation's phase, every
// running core, the queued responses and relay forwards, and the
// network. Times are relative to the current cycle and tags to the
// next tag sequence number, so two states one period of a steady spin
// apart encode equal. Fields a core's state makes dead (a running
// core's stale remote op) are left out.
func (m *Machine) appendSpinState(w []uint32) []uint32 {
	tagBase := m.tagSeq << 6
	rel := func(w []uint32, t int64) []uint32 {
		d := uint64(t - m.cycle)
		return append(w, uint32(d), uint32(d>>32))
	}
	at := func(c geom.Coord) uint32 { return uint32(m.grid.Index(c)) }
	w = append(w, uint32(m.cycle%int64(m.Cfg.CoresPerTile)))
	for _, c := range m.runningCores() {
		w = append(w, m.globalID(c), uint32(c.state), c.PC)
		w = append(w, c.Regs[:]...)
		switch c.state {
		case coreStalled:
			w = rel(w, c.stallUntil)
			w = append(w, uint32(c.loadReg), c.loadVal)
		case coreRemote:
			r := &c.rem
			w = append(w, b2u(r.injected)|uint32(r.net)<<8, at(r.dst), r.tag-tagBase,
				uint32(r.payload), uint32(r.payload>>32), uint32(r.reg), uint32(r.attempts))
			w = rel(w, r.issuedAt)
			w = rel(w, r.deadline)
		}
	}
	w = append(w, uint32(len(m.pending)))
	for _, r := range m.pending {
		w = append(w, uint32(r.net), at(r.src), at(r.finalDst), r.tag-tagBase, r.result)
	}
	w = append(w, uint32(len(m.pendingFwd)))
	for i := range m.pendingFwd {
		f := &m.pendingFwd[i]
		p := &f.pkt
		w = append(w, at(f.at), uint32(p.Kind)|uint32(p.Net)<<8, at(p.Src), at(p.Dst),
			p.Tag-tagBase, uint32(p.Payload), uint32(p.Payload>>32), uint32(p.Hops))
		w = rel(w, p.InjectedAt)
	}
	return m.net.AppendSpinState(w, tagBase)
}

// runningCores returns every running core, by ascending tile index
// and core index, in a buffer the next call reuses.
func (m *Machine) runningCores() []*Core {
	cs := m.spin.cores[:0]
	for w, word := range m.active {
		for ; word != 0; word &= word - 1 {
			t := m.tiles[w<<6|bits.TrailingZeros64(word)]
			if t.dead {
				continue
			}
			for _, idx := range t.run {
				if c := t.Cores[idx]; !c.Halted() {
					cs = append(cs, c)
				}
			}
		}
	}
	m.spin.cores = cs
	return cs
}

// fastForward skips whole periods of the spin spinPeriod found, up to
// target, the end of the RunCtx call that began at start. It first
// makes the stride checks the skipped cycles would have made, with
// their cycle numbers; a cancellation seen at one pauses the machine on
// that very cycle, by skipping the whole periods before it and stepping
// the rest.
func (m *Machine) fastForward(ctx context.Context, start, target, period int64) error {
	from := m.cycle
	pause := from + (target-from)/period*period
	var err error
	first := start + (from-start+runProgressStride-1)/runProgressStride*runProgressStride
	for c := first; c < pause; c += runProgressStride {
		if err = m.strideCheck(ctx, c); err != nil {
			pause = c
			break
		}
	}
	m.skipPeriods((pause-from)/period, period)
	for m.cycle < pause {
		m.Step()
		m.spin.stepped++
	}
	return err
}

// skipPeriods advances the machine k periods of period cycles, the
// first of which began at m.spin.match, as stepping would have left it.
func (m *Machine) skipPeriods(k, period int64) {
	if k == 0 {
		return
	}
	then := m.spin.match
	span := k * period
	tags := uint32(k) * (m.tagSeq - then.tagSeq)
	tagShift := tags << 6
	net := advanceNetStats(m.net.Stats(), then.net, k)
	ids := uint64(net.Injected - m.net.Stats().Injected)
	for i, p := range m.spin.counters {
		*p += k * (*p - then.counters[i])
	}
	for _, c := range m.runningCores() {
		switch c.state {
		case coreStalled:
			c.stallUntil += span
		case coreRemote:
			c.rem.tag += tagShift
			c.rem.issuedAt += span
			c.rem.deadline += span
		}
	}
	for i := range m.pending {
		m.pending[i].tag += tagShift
	}
	for i := range m.pendingFwd {
		p := &m.pendingFwd[i].pkt
		p.ID += ids
		p.Tag += tagShift
		p.InjectedAt += span
		p.DeliveredAt += span
	}
	m.net.FastForward(span, tagShift, net)
	m.tagSeq += tags
	m.cycle += span
}
