package noc

import (
	"fmt"

	"waferscale/internal/geom"
)

// Kind distinguishes request and response packets. The router hardware
// pairs them onto complementary networks (paper Section VI).
type Kind int

// The packet kinds.
const (
	Request Kind = iota
	Response
)

// String returns the kind name.
func (k Kind) String() string {
	if k == Request {
		return "request"
	}
	return "response"
}

// Packet is a single-flit network packet. The prototype's packets are
// 100 bits wide and travel one per cycle per bus, so a packet occupies
// exactly one FIFO slot.
type Packet struct {
	ID      uint64
	Kind    Kind
	Net     Network    // physical network carrying the packet
	Src     geom.Coord // injecting tile
	Dst     geom.Coord // ejecting tile
	Tag     uint32     // request/response matching tag
	Payload uint64     // up to PayloadBitsPerBus of data

	InjectedAt  int64 // cycle the packet entered the source FIFO
	DeliveredAt int64 // cycle it ejected at the destination
	Hops        int   // router-to-router traversals
}

// Latency returns the in-network cycles for a delivered packet.
func (p Packet) Latency() int64 { return p.DeliveredAt - p.InjectedAt }

// String renders a short packet description.
func (p Packet) String() string {
	return fmt.Sprintf("pkt%d %s %v->%v on %v", p.ID, p.Kind, p.Src, p.Dst, p.Net)
}

// SimConfig parametrizes the cycle-level simulator.
type SimConfig struct {
	// FIFODepth is the per-input-port buffer depth in packets. The
	// inter-chiplet links use asynchronous FIFOs (the BaseJump BSG
	// links), which is also why half-cycle phase shifts from clock
	// inversion are harmless (paper footnote 3).
	FIFODepth int
	// LinkLatency is the cycles a packet spends crossing an
	// inter-chiplet link (async FIFO synchronization + wire).
	LinkLatency int
}

// DefaultSimConfig returns a 4-deep FIFO, 2-cycle link configuration.
func DefaultSimConfig() SimConfig { return SimConfig{FIFODepth: 4, LinkLatency: 2} }

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if c.FIFODepth < 1 {
		return fmt.Errorf("noc: FIFO depth %d must be >= 1", c.FIFODepth)
	}
	if c.LinkLatency < 1 {
		return fmt.Errorf("noc: link latency %d must be >= 1", c.LinkLatency)
	}
	return nil
}

// SimStats aggregates delivery statistics.
//
// Drop accounting invariant: every lost packet is counted once in
// Dropped AND once in exactly one of the per-cause counters, so
//
//	Dropped == DroppedQueued + DroppedInFlight
//
// always holds (tested by TestDropAccountingInvariant).
type SimStats struct {
	Injected     int
	Delivered    int
	Dropped      int // total packets lost, all causes
	TotalLatency int64
	TotalHops    int
	MaxLatency   int64

	// Runtime-fault accounting (chaos runs).
	DroppedQueued   int // packets destroyed inside a router killed at runtime
	DroppedInFlight int // packets lost leaving a router: landing on a faulty/killed tile or routed off-array
	RoutersKilled   int // KillRouter calls that removed a live router
	Forwarded       int // packets re-injected at a relay tile (kernel detours)
	Timeouts        int // remote-op deadlines expired (reported by the machine)
	BitErrors       int // payloads corrupted by injected transient errors
}

// AvgLatency returns mean delivery latency in cycles.
func (s SimStats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}
