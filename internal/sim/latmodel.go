package sim

import (
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// Analytical fast-path timing for the workload engine. With
// Machine.LatencyModel set, remote memory operations stop exchanging
// real packets through the cycle-stepped routers: the memory effect is
// applied immediately and the issuing core stalls for a round trip
// computed by the timing model (request leg, relay forwarding, response
// leg on the complementary network). The per-cycle network simulation
// is skipped entirely, which is where the engine spends most of its
// time on communication-heavy workloads.
//
// This is an approximation, not a different implementation of the same
// semantics: memory effects land at issue instead of mid-flight,
// backpressure and in-network contention are summarized by the model's
// queueing terms at Machine.LatencyRate, and lost-packet timeouts never
// fire (the model either delivers or reports the pair blocked). Results
// from a modeled run must therefore be labeled with the model's name
// (see Machine.TimingModelName) and never cache-keyed as cycle-exact.

// modelPerLegOverhead is the fixed per-leg cost the engine adds on top
// of the model's pair latency: ejection/re-injection at a relay (or
// final delivery) costs a cycle, matching the cycle engine's parked
// forward and response-turnaround behavior.
const modelPerLegOverhead = 1

// TimingModelName reports the backend timing remote operations:
// "cycle" for the packet-simulated engine, or the attached
// LatencyModel's name.
func (m *Machine) TimingModelName() string {
	if m.LatencyModel == nil {
		return noc.ModelNameCycle
	}
	return m.LatencyModel.ModelName()
}

// modeledLeg returns the modeled one-way latency of a possibly
// multi-leg path from src to dst: the kernel plans the route (detours
// included) and each leg is priced by the model on the leg's network.
func (m *Machine) modeledLeg(src, dst geom.Coord) (int64, bool) {
	dec, err := m.kernel.Decide(src, dst)
	if err != nil || !dec.Reachable {
		return 0, false
	}
	legs := make([]geom.Coord, 0, len(dec.Via)+2)
	legs = append(legs, src)
	legs = append(legs, dec.Via...)
	legs = append(legs, dst)
	var total float64
	for i := 0; i+1 < len(legs); i++ {
		// The kernel's decision covers the first leg; relays re-plan, so
		// price each subsequent leg by its own decision.
		net := dec.Request
		if i > 0 {
			ldec, err := m.kernel.Decide(legs[i], legs[i+1])
			if err != nil || !ldec.Reachable {
				return 0, false
			}
			net = ldec.Request
		}
		lat, ok := m.LatencyModel.PairLatency(net, legs[i], legs[i+1], m.LatencyRate)
		if !ok {
			return 0, false
		}
		total += lat + modelPerLegOverhead
	}
	return int64(total + 0.5), true
}

// modeledRoundTrip prices a full remote operation: request path out,
// response path back. The response rides the complementary network
// when that direct path is clear (the router pairing the cycle engine
// bakes in), falling back to a kernel re-plan exactly like
// flushResponses does.
func (m *Machine) modeledRoundTrip(src, dst geom.Coord) (int64, bool) {
	req, ok := m.modeledLeg(src, dst)
	if !ok {
		return 0, false
	}
	dec, err := m.kernel.Decide(src, dst)
	if err != nil || !dec.Reachable {
		return 0, false
	}
	if len(dec.Via) == 0 {
		if lat, ok := m.LatencyModel.PairLatency(dec.Request.Complement(), dst, src, m.LatencyRate); ok {
			return req + int64(lat+modelPerLegOverhead+0.5), true
		}
	}
	resp, ok := m.modeledLeg(dst, src)
	if !ok {
		return 0, false
	}
	return req + resp, true
}

// remoteOpModeled is remoteOp under an attached timing model: the
// memory effect applies now, the core stalls for the modeled round
// trip, and the eventual load/amo result is parked in the op's payload
// until the deadline completes it (see stepRemote).
func (m *Machine) remoteOpModeled(c *Core, in Instr, addr uint32, target geom.Coord) bool {
	rt, ok := m.modeledRoundTrip(c.tile, target)
	if !ok {
		m.degr.markDegradedOnce(target)
		m.fault(c, "tile %v unreachable from %v", target, c.tile)
		return true
	}
	op, reg, data := memArgs(c, in)
	old, err := m.applyGlobal(addr, op, data)
	if err != nil {
		m.fault(c, "remote access lost: global address %#x has no backing", addr)
		return true
	}
	m.tagSeq++
	c.rem.injected = true // nothing to retry: no packet exists
	c.rem.net = noc.XY
	c.rem.dst = target
	c.rem.tag = op | uint32(c.idx)<<2 | m.tagSeq<<6
	c.rem.payload = uint64(addr)<<32 | uint64(old)
	c.rem.reg = reg
	c.rem.issuedAt = m.cycle
	c.rem.deadline = m.cycle + rt
	c.rem.attempts = 0
	c.state = coreRemote
	return true
}

// stepRemoteModeled completes a modeled remote op when its deadline
// arrives: the parked result lands in the destination register and the
// round trip is booked into the latency stats.
func (m *Machine) stepRemoteModeled(c *Core) {
	c.StallRemote++
	if m.cycle < c.rem.deadline {
		return
	}
	if c.rem.reg > 0 { // r0 is hardwired zero
		c.Regs[c.rem.reg] = uint32(c.rem.payload)
	}
	m.RemoteRequests++
	m.RemoteLatency += m.cycle - c.rem.issuedAt
	c.state = coreRunning
}
