package sim

import (
	"fmt"
	"strings"

	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// DegradationReport is the machine's structured account of running
// under faults: what died, what memory was lost, and how much work the
// retry/detour machinery did to keep the workload alive. A healthy run
// reports all zeros. This is the runtime counterpart of the paper's
// Section VIII single-layer fallback story — the system degrades with
// an explanation instead of hanging or panicking.
type DegradationReport struct {
	// Topology names the NoC link graph the machine ran, so degraded
	// runs are attributable to the interconnect they happened on. The
	// relay planner plans on that same graph, so relays appear exactly
	// where both of its direct routes are blocked (see
	// TestRelayDetourNonMeshTopologies).
	Topology string
	// KilledTiles lists tiles killed at runtime, in kill order.
	KilledTiles []geom.Coord
	// DegradedTiles lists tiles declared unreachable after remote-op
	// retries were exhausted (deduplicated, in declaration order).
	DegradedTiles []geom.Coord
	// RemappedWindows counts dead-tile global windows remapped to
	// shadow storage on surviving tiles.
	RemappedWindows int
	// LostSharedBytes is the shared-memory capacity whose contents were
	// lost with their tiles (remapped windows restart zeroed).
	LostSharedBytes int64

	// Work done to survive.
	RelayedRequests  int64 // requests forwarded through relay tiles
	RelayedResponses int64 // responses forwarded through relay tiles
	RetriedOps       int64 // remote ops reissued after a deadline
	TimedOutOps      int64 // remote-op deadlines that expired
	ExhaustedOps     int64 // remote ops abandoned after all retries
	DroppedResponses int64 // responses dropped (dead server or no path)
	DroppedForwards  int64 // relayed packets dropped (no path onward)
	LinkFlaps        int   // scheduled link-down events applied
	BitErrors        int64 // scheduled payload corruptions that hit
}

// Degraded reports whether the machine deviated from healthy execution
// at all.
func (r DegradationReport) Degraded() bool {
	return len(r.KilledTiles) > 0 || len(r.DegradedTiles) > 0 ||
		r.RetriedOps > 0 || r.TimedOutOps > 0 || r.ExhaustedOps > 0 ||
		r.RelayedRequests > 0 || r.RelayedResponses > 0 ||
		r.DroppedResponses > 0 || r.DroppedForwards > 0 ||
		r.LinkFlaps > 0 || r.BitErrors > 0
}

// String renders the report for CLI output.
func (r DegradationReport) String() string {
	if !r.Degraded() {
		return "degradation: none (healthy run)"
	}
	var b strings.Builder
	if r.Topology != "" {
		fmt.Fprintf(&b, "degradation report (%s topology):\n", r.Topology)
	} else {
		fmt.Fprintf(&b, "degradation report:\n")
	}
	fmt.Fprintf(&b, "  tiles killed      %d %v\n", len(r.KilledTiles), r.KilledTiles)
	fmt.Fprintf(&b, "  tiles degraded    %d %v\n", len(r.DegradedTiles), r.DegradedTiles)
	fmt.Fprintf(&b, "  windows remapped  %d (%d KiB shared memory lost)\n",
		r.RemappedWindows, r.LostSharedBytes/1024)
	fmt.Fprintf(&b, "  remote retries    %d reissued, %d timeouts, %d abandoned\n",
		r.RetriedOps, r.TimedOutOps, r.ExhaustedOps)
	fmt.Fprintf(&b, "  relay traffic     %d requests, %d responses forwarded\n",
		r.RelayedRequests, r.RelayedResponses)
	fmt.Fprintf(&b, "  losses            %d responses, %d forwards dropped\n",
		r.DroppedResponses, r.DroppedForwards)
	fmt.Fprintf(&b, "  injected          %d link flaps, %d bit errors landed\n", r.LinkFlaps, r.BitErrors)
	return b.String()
}

// markDegraded records a tile as degraded exactly once.
func (r *DegradationReport) markDegradedOnce(c geom.Coord) {
	for _, d := range r.DegradedTiles {
		if d == c {
			return
		}
	}
	r.DegradedTiles = append(r.DegradedTiles, c)
}

// Degradation returns a copy of the machine's degradation report.
func (m *Machine) Degradation() DegradationReport {
	r := m.degr
	r.Topology = m.topoName
	r.KilledTiles = append([]geom.Coord(nil), m.degr.KilledTiles...)
	r.DegradedTiles = append([]geom.Coord(nil), m.degr.DegradedTiles...)
	return r
}

// AttachSchedule arms a fault schedule: its events fire between machine
// cycles as the cycle counter passes each event's time. Pass nil to
// detach. The schedule must not be mutated afterwards.
func (m *Machine) AttachSchedule(s *inject.Schedule) error {
	if s == nil {
		m.schedEvents, m.schedAt = nil, 0
		return nil
	}
	if err := s.Validate(m.grid); err != nil {
		return err
	}
	m.schedEvents = s.Events()
	m.schedAt = 0
	return nil
}

// applyScheduled fires every armed event whose cycle has arrived.
func (m *Machine) applyScheduled() {
	for m.schedAt < len(m.schedEvents) && m.schedEvents[m.schedAt].Cycle <= m.cycle {
		e := m.schedEvents[m.schedAt]
		m.schedAt++
		switch e.Kind {
		case inject.KillTile:
			m.KillTile(e.Tile)
		case inject.LinkDown:
			m.net.SetLinkDown(e.Tile, e.Dir, true)
			m.degr.LinkFlaps++
		case inject.LinkUp:
			m.net.SetLinkDown(e.Tile, e.Dir, false)
		case inject.BitError:
			if m.net.CorruptPayload(e.Tile, e.Mask) {
				m.degr.BitErrors++
			}
		}
	}
}

// KillTile kills a live tile between cycles: its routers disappear from
// both networks (queued packets are lost), its cores fault, the kernel
// re-plans routing, and its global memory window is remapped — zeroed,
// the data is lost — onto the nearest healthy tile (the Section VIII
// degraded mode generalized to runtime). Returns false when the tile
// was already dead, construction-faulty, or out of the grid.
func (m *Machine) KillTile(c geom.Coord) bool {
	if !m.grid.In(c) {
		return false
	}
	i := m.grid.Index(c)
	t := m.tiles[i]
	if t == nil || t.dead {
		return false
	}
	t.dead = true
	m.fm.MarkFaulty(c)
	m.net.KillRouter(c)
	m.kernel.Refresh()
	for _, core := range t.Cores {
		if core.state != coreHalted && core.state != coreFaulted {
			core.Err = fmt.Errorf("tile %v killed at cycle %d", c, m.cycle)
			core.state = coreFaulted
			m.coreStopped(core)
		}
	}
	win := int64(m.amap.GlobalWindowBytes())
	m.degr.LostSharedBytes += win
	if host, ok := m.nearestHealthy(c); ok {
		m.remap[i] = m.grid.Index(host)
		shadow := newPagedMem(int(win))
		m.shadow[i] = &shadow
		m.degr.RemappedWindows++
		// Shadow windows previously hosted on the dead tile migrate to
		// the new host; their storage is host-agnostic, so unlike the
		// killed tile's own banks, their contents survive.
		for victim, hostIdx := range m.remap {
			if victim != i && hostIdx == i {
				m.remap[victim] = m.grid.Index(host)
			}
		}
	} else {
		// No healthy tile survives to host the window; accesses to it
		// will fault their cores with a structured error.
		for victim, hostIdx := range m.remap {
			if hostIdx == i {
				delete(m.remap, victim)
				delete(m.shadow, victim)
			}
		}
	}
	m.degr.KilledTiles = append(m.degr.KilledTiles, c)
	return true
}

// nearestHealthy returns the closest live tile to c by Manhattan
// distance (row-major order breaks ties, keeping the choice
// deterministic).
func (m *Machine) nearestHealthy(c geom.Coord) (geom.Coord, bool) {
	var best geom.Coord
	bestD := 1 << 30
	found := false
	m.grid.All(func(o geom.Coord) {
		t := m.tiles[m.grid.Index(o)]
		if t == nil || t.dead {
			return
		}
		if d := c.Manhattan(o); d < bestD {
			bestD, best, found = d, o, true
		}
	})
	return best, found
}
