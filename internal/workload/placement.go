package workload

import (
	"fmt"

	"waferscale/internal/arch"
	"waferscale/internal/geom"
	"waferscale/internal/sim"
)

// Placement maps each operator's output tensor (and control block) to a
// contiguous range of the wafer's flat global address space. The space
// is one 512 KiB window per tile in row-major tile order, so "where a
// tensor starts" and "which tiles hold it" are the same decision; the
// policies below differ only in which tile they steer each tensor
// toward. Faulty tiles' windows are excluded from the allocator, so a
// plan is always realizable on the machine it was computed for.

// Placement policy names. The empty string means row-major (the
// canonical default, mirroring how "" means mesh for topologies).
const (
	PlacementRowMajor  = "rowmajor"
	PlacementBlocked   = "blocked"
	PlacementBandwidth = "bandwidth"
)

// PlacementNames lists the policies in canonical order.
func PlacementNames() []string {
	return []string{PlacementRowMajor, PlacementBlocked, PlacementBandwidth}
}

// NormalizePlacement validates a policy name, mapping "" to rowmajor.
func NormalizePlacement(name string) (string, error) {
	if name == "" {
		return PlacementRowMajor, nil
	}
	for _, n := range PlacementNames() {
		if n == name {
			return n, nil
		}
	}
	return "", fmt.Errorf("workload: unknown placement %q (have %v)", name, PlacementNames())
}

// Plan is a computed placement: addresses, tile regions and per-tile
// working sets for one graph on one machine.
type Plan struct {
	Policy string
	// Tensors maps op ID to the base address of its output tensor.
	Tensors map[string]uint32
	// Ctrl maps op ID to its 64-byte control block.
	Ctrl map[string]uint32
	// Regions maps op ID to the tiles its output tensor occupies, in
	// address order.
	Regions map[string][]geom.Coord
	// WorkingSet maps each tile to the bytes of tensor data it hosts.
	WorkingSet map[geom.Coord]int64
}

// ctrlBytes is the allocation granule for per-op control blocks.
const ctrlBytes = 64

// interval is a free [start, end) range of global address space.
type interval struct{ start, end uint64 }

// allocator hands out first-fit ranges from the healthy tile windows.
type allocator struct {
	free []interval // sorted, non-overlapping
}

// newAllocator builds the free list from the machine's healthy tiles:
// one interval per live window, coalescing adjacent windows so tensors
// can span tiles.
func newAllocator(m *sim.Machine) *allocator {
	win := uint64(m.Cfg.GlobalBanksPerTile) * uint64(m.Cfg.BankBytes)
	grid := m.Cfg.Grid()
	a := &allocator{}
	for i := 0; i < grid.Size(); i++ {
		if m.Tile(grid.Coord(i)) == nil {
			continue
		}
		start := uint64(arch.GlobalBase) + uint64(i)*win
		if n := len(a.free); n > 0 && a.free[n-1].end == start {
			a.free[n-1].end = start + win
		} else {
			a.free = append(a.free, interval{start, start + win})
		}
	}
	return a
}

// alloc carves size bytes out of the free list, preferring the lowest
// address at or above prefer and wrapping to the lowest free address
// when nothing fits past it.
func (a *allocator) alloc(size uint32, prefer uint64) (uint32, error) {
	if size == 0 {
		size = 4
	}
	sz := uint64(size)
	take := func(i int, at uint64) uint32 {
		iv := a.free[i]
		var repl []interval
		if at > iv.start {
			repl = append(repl, interval{iv.start, at})
		}
		if at+sz < iv.end {
			repl = append(repl, interval{at + sz, iv.end})
		}
		a.free = append(a.free[:i], append(repl, a.free[i+1:]...)...)
		return uint32(at)
	}
	for i, iv := range a.free {
		at := iv.start
		if prefer > at {
			at = prefer
		}
		if at+sz <= iv.end {
			return take(i, at), nil
		}
	}
	if prefer > 0 {
		return a.alloc(size, 0)
	}
	return 0, fmt.Errorf("workload: out of global memory allocating %d bytes", size)
}

// Place computes a placement plan for g on m under the named policy.
func Place(m *sim.Machine, g *Graph, policy string) (*Plan, error) {
	policy, err := NormalizePlacement(policy)
	if err != nil {
		return nil, err
	}
	shapes, err := g.Shapes()
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	a := newAllocator(m)
	win := uint64(m.Cfg.GlobalBanksPerTile) * uint64(m.Cfg.BankBytes)
	grid := m.Cfg.Grid()
	tileBase := func(c geom.Coord) uint64 {
		return uint64(arch.GlobalBase) + uint64(grid.Index(c))*win
	}

	pl := &Plan{
		Policy:     policy,
		Tensors:    make(map[string]uint32, len(g.Ops)),
		Ctrl:       make(map[string]uint32, len(g.Ops)),
		Regions:    make(map[string][]geom.Coord, len(g.Ops)),
		WorkingSet: make(map[geom.Coord]int64),
	}

	// Blocked placement cycles tensors through the four array quadrants.
	quads := []geom.Coord{
		geom.C(0, 0),
		geom.C(grid.W/2, 0),
		geom.C(0, grid.H/2),
		geom.C(grid.W/2, grid.H/2),
	}

	// Placement is tile-granular: each tensor prefers the start of a
	// fresh tile window, so an operator's inputs and output live on
	// different tiles and the data movement between them — the point of
	// the exercise — actually rides the NoC. The bandwidth-aware policy
	// is the exception: it deliberately co-locates an output with its
	// heaviest input to shorten those paths.
	nextWindow := func(addr uint64) uint64 {
		rel := addr - uint64(arch.GlobalBase)
		return uint64(arch.GlobalBase) + (rel/win+1)*win
	}
	var cursor uint64 = uint64(arch.GlobalBase)
	for seq, idx := range order {
		op := &g.Ops[idx]
		sh := shapes[op.ID]
		size := uint32(sh.Rows * sh.Cols * 4)

		var prefer uint64
		switch policy {
		case PlacementBlocked:
			prefer = tileBase(quads[seq%len(quads)])
		case PlacementBandwidth:
			// Put the output next to its largest input tensor so the
			// operator's heaviest traffic stays local; sources (no
			// inputs) fall back to the window cursor.
			prefer = cursor
			best := -1
			for _, in := range op.Inputs {
				s := shapes[in]
				if b := s.Rows * s.Cols; b > best {
					best = b
					prefer = uint64(pl.Tensors[in])
				}
			}
		default: // rowmajor
			prefer = cursor
		}

		base, err := a.alloc(size, prefer)
		if err != nil {
			return nil, fmt.Errorf("workload: placing %q: %w", op.ID, err)
		}
		ctrl, err := a.alloc(ctrlBytes, uint64(base))
		if err != nil {
			return nil, fmt.Errorf("workload: placing ctrl for %q: %w", op.ID, err)
		}
		pl.Tensors[op.ID] = base
		pl.Ctrl[op.ID] = ctrl
		cursor = nextWindow(uint64(base) + uint64(size) + ctrlBytes - 1)

		// Region and working set: the tiles the tensor's byte range
		// overlaps.
		first := (uint64(base) - uint64(arch.GlobalBase)) / win
		last := (uint64(base) + uint64(size) - 1 - uint64(arch.GlobalBase)) / win
		for t := first; t <= last; t++ {
			c := grid.Coord(int(t))
			lo := uint64(arch.GlobalBase) + t*win
			hi := lo + win
			s, e := uint64(base), uint64(base)+uint64(size)
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			pl.Regions[op.ID] = append(pl.Regions[op.ID], c)
			pl.WorkingSet[c] += int64(e - s)
		}
	}
	return pl, nil
}

// workers picks the cores that execute op: round-robin over the tiles
// of its output region first, then its input regions, then any healthy
// tile, skipping tiles that have died since placement. The order is a
// pure function of the plan and the machine's live set, so reruns are
// deterministic.
func (pl *Plan) workers(m *sim.Machine, g *Graph, opIdx int, max int) []sim.WorkerRef {
	op := &g.Ops[opIdx]
	var tiles []geom.Coord
	seen := make(map[geom.Coord]bool)
	addRegion := func(id string) {
		for _, c := range pl.Regions[id] {
			if !seen[c] && m.Tile(c) != nil {
				seen[c] = true
				tiles = append(tiles, c)
			}
		}
	}
	addRegion(op.ID)
	for _, in := range op.Inputs {
		addRegion(in)
	}
	if len(tiles)*m.Cfg.CoresPerTile < max {
		grid := m.Cfg.Grid()
		for i := 0; i < grid.Size(); i++ {
			c := grid.Coord(i)
			if !seen[c] && m.Tile(c) != nil {
				seen[c] = true
				tiles = append(tiles, c)
			}
		}
	}
	var ws []sim.WorkerRef
	for core := 0; core < m.Cfg.CoresPerTile && len(ws) < max; core++ {
		for _, c := range tiles {
			if len(ws) >= max {
				break
			}
			ws = append(ws, sim.WorkerRef{Tile: c, Core: core})
		}
	}
	return ws
}
