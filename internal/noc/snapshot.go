package noc

import (
	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Fork returns a deep copy of the simulator: every piece of mutable run
// state — the packet arena with its routing records and free list,
// router FIFOs, the in-flight link wheel, credit and occupancy
// counters, the busy-router set, link outages, statistics, the cycle
// counter and the packet ID sequence — is copied, so stepping the fork
// is bit-identical to stepping the original while leaving the original
// untouched. It is the NoC half of the machine-level warm-state
// snapshot that lets Monte Carlo sweeps run a shared prefix once and
// fork per trial.
//
// fm is the fault map the fork routes against; pass a Clone of the
// original's map (the map is shared with the kernel and machine layers,
// so the caller owns making exactly one clone per fork). fm must have
// the same grid and describe the same fault state as the original's map
// — the fork trusts router liveness, not fm, for which routers exist.
//
// The fork's OnDeliver is nil (callbacks capture the original's owner;
// the caller rewires its own), and its Policy and topology (with the
// immutable neighbor tables) are shared.
// Fork must be called between cycles, like every other mutation of the
// simulator.
func (s *Sim) Fork(fm *fault.Map) *Sim {
	n := &Sim{
		grid:            s.grid,
		fm:              fm,
		cfg:             s.cfg,
		topo:            s.topo,
		np:              s.np,
		local:           s.local,
		nbrTile:         s.nbrTile,
		nbrPort:         s.nbrPort,
		nbrLat:          s.nbrLat,
		Policy:          s.Policy,
		cycle:           s.cycle,
		nextID:          s.nextID,
		stats:           s.stats,
		RetainDelivered: s.RetainDelivered,
	}
	n.linkDown = append([]bool(nil), s.linkDown...)
	for i := range s.linkUse {
		n.linkUse[i] = append([]int64(nil), s.linkUse[i]...)
	}
	if s.delivered != nil {
		n.delivered = append([]Packet(nil), s.delivered...)
	}
	n.pkts = append([]body(nil), s.pkts...)
	n.route = append([]route(nil), s.route...)
	n.free = append([]int32(nil), s.free...)
	for i, mn := range s.nets {
		n.nets[i] = forkMeshNet(mn, s.grid, s.np, s.cfg.FIFODepth)
	}
	return n
}

// forkMeshNet deep-copies one physical network, flight wheel, credit
// counters and busy set included (the wheel is indexed by absolute
// cycle, which the fork shares). Router existence is taken from the
// source's router array (nil = faulty at construction or killed at
// runtime), not from the fault map — the array is the authoritative
// record once runtime kills start landing. The handle slab backing
// every FIFO ring is copied whole; each ring then takes the source's
// head and length.
func forkMeshNet(src *meshNet, g geom.Grid, np, fifoDepth int) *meshNet {
	mn := &meshNet{
		net:     src.net,
		routers: make([]*router, g.Size()),
		slab:    append([]int32(nil), src.slab...),
		wheel:   make([][]inFlight, len(src.wheel)),
		busy:    append([]uint64(nil), src.busy...),
		credit:  append([]int32(nil), src.credit...),
	}
	// One backing array for every bucket; each bucket's capacity ends at
	// its length, so a later append reallocates instead of spilling into
	// the next bucket.
	flights := make([]inFlight, src.flightCount())
	for i, b := range src.wheel {
		n := copy(flights, b)
		mn.wheel[i] = flights[:n:n]
		flights = flights[n:]
	}
	mn.addRouters(g, np, fifoDepth, func(i int) bool { return src.routers[i] != nil })
	for i, r := range mn.routers {
		if r == nil {
			continue
		}
		sr := src.routers[i]
		r.queued = sr.queued
		copy(r.rrAt, sr.rrAt)
		for p := range r.in {
			r.in[p].head, r.in[p].n = sr.in[p].head, sr.in[p].n
		}
	}
	return mn
}
