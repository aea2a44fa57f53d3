package sim

import "waferscale/internal/geom"

// Warm-state snapshot/fork for the cycle engine. A fork copies every
// piece of mutable run state — core registers, private SRAM, shared
// memory banks and their busy cycles, the network simulator's FIFOs
// and in-flight packets, pending responses/forwards, remote ops with
// their deterministic retry/jitter state, the remap/shadow tables,
// degradation bookkeeping, the fault map, the kernel's memoized routing
// decisions, and the cycle counter — so stepping the fork is
// bit-identical to stepping the original.
// Memory is demand-paged (see pagedMem), so a fork copies only the
// pages the guest has written; the rest read zero on both sides.
// Monte Carlo sweeps use this to run a shared fault-free prefix once
// and fork per trial at each trial's first injected-fault cycle.

// Snapshot is a frozen copy of a machine, taken between cycles. It is
// immutable: forks are copies of the captured state, and taking more
// forks later yields the same starting point. Fork is safe for
// concurrent use, so trial workers can fork from one snapshot in
// parallel.
type Snapshot struct {
	m *Machine
}

// Snapshot captures the machine's current state. It must be called
// between cycles (never from inside Step or a callback), like every
// other mutation of the machine. The snapshot is independent of the
// machine: stepping the machine afterwards does not disturb it.
func (m *Machine) Snapshot() *Snapshot { return &Snapshot{m: m.clone()} }

// Cycle returns the machine cycle the snapshot was taken at.
func (s *Snapshot) Cycle() int64 { return s.m.cycle }

// Fork materializes an independent machine from the snapshot. Safe for
// concurrent use: forking only reads the frozen state.
func (s *Snapshot) Fork() *Machine { return s.m.clone() }

// Fork returns an independent deep copy of the machine, equivalent to
// m.Snapshot().Fork() without retaining the intermediate copy. It must
// be called between cycles; unlike Snapshot.Fork it is NOT safe to call
// concurrently with stepping m.
func (m *Machine) Fork() *Machine { return m.clone() }

// clone is the one copy routine behind Snapshot and Fork. Not copied,
// by design: the trace writer and filter (a fork would interleave its
// lines into the original's trace) and the Progress callback (callers
// wire their own). The address map is shared — it is immutable after
// construction. The fault map is
// cloned exactly once and shared by the fork's machine, network and
// kernel layers, preserving the original's aliasing (KillTile marks the
// one map all three read).
func (m *Machine) clone() *Machine {
	fm := m.fm.Clone()
	n := &Machine{
		Cfg:            m.Cfg,
		grid:           m.grid,
		topoName:       m.topoName,
		fm:             fm,
		amap:           m.amap,
		kernel:         m.kernel.Fork(fm),
		net:            m.net.Fork(fm),
		tiles:          make([]*Tile, len(m.tiles)),
		cycle:          m.cycle,
		tagSeq:         m.tagSeq,
		RemoteTimeout:  m.RemoteTimeout,
		RemoteRetries:  m.RemoteRetries,
		schedEvents:    m.schedEvents, // read-only by contract (inject.Schedule)
		schedAt:        m.schedAt,
		remap:          make(map[int]int, len(m.remap)),
		shadow:         make(map[int]*pagedMem, len(m.shadow)),
		RemoteRequests: m.RemoteRequests,
		RemoteLatency:  m.RemoteLatency,
		BankConflicts:  m.BankConflicts,
		running:        m.running,
		fullScan:       m.fullScan,
	}
	n.pending = append([]responseToSend(nil), m.pending...)
	n.pendingFwd = append([]forwardToSend(nil), m.pendingFwd...)
	for k, v := range m.remap {
		n.remap[k] = v
	}
	for k, v := range m.shadow {
		shadow := v.clone()
		n.shadow[k] = &shadow
	}
	n.degr = m.degr
	n.degr.KilledTiles = append([]geom.Coord(nil), m.degr.KilledTiles...)
	n.degr.DegradedTiles = append([]geom.Coord(nil), m.degr.DegradedTiles...)
	for i, t := range m.tiles {
		if t == nil {
			continue
		}
		nt := &Tile{
			Coord:    t.Coord,
			Cores:    make([]*Core, len(t.Cores)),
			mem:      t.mem.clone(),
			bankBusy: append([]int64(nil), t.bankBusy...),
			dead:     t.dead,
			run:      append([]int(nil), t.run...),
			runDirty: t.runDirty,
		}
		for j, c := range t.Cores {
			nc := new(Core)
			*nc = *c // registers, pipeline state and the rem struct copy by value
			nc.priv = c.priv.clone()
			nt.Cores[j] = nc
		}
		n.tiles[i] = nt
	}
	n.net.OnDeliver = n.onDeliver
	return n
}
