package noc

import (
	"context"
	"math/rand"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Chiplet-granularity fault modelling. Fig. 6's x-axis counts faulty
// *chiplets* out of 2048, and the two chiplets of a tile fail
// differently:
//
//   - the compute chiplet carries the routers: if it dies, the tile
//     routes nothing at all;
//   - the memory chiplet only carries the buffered feedthroughs for
//     the north-south links (paper Section II): if it dies, the tile
//     still routes east-west, but vertical paths through it are cut
//     (and its shared banks are lost).
//
// The tile-level analyses elsewhere in this package conservatively
// treat any chiplet fault as a whole-tile fault; ChipletAnalyzer
// refines that, and the comparison quantifies how much pessimism the
// tile-level abstraction costs.

// ChipletFaultMap tracks per-chiplet health.
type ChipletFaultMap struct {
	grid    geom.Grid
	compute []bool // true = faulty
	memory  []bool
	count   int
}

// NewChipletFaultMap returns an all-healthy map.
func NewChipletFaultMap(grid geom.Grid) *ChipletFaultMap {
	return &ChipletFaultMap{
		grid:    grid,
		compute: make([]bool, grid.Size()),
		memory:  make([]bool, grid.Size()),
	}
}

// Grid returns the tile array shape.
func (m *ChipletFaultMap) Grid() geom.Grid { return m.grid }

// Count returns the number of faulty chiplets.
func (m *ChipletFaultMap) Count() int { return m.count }

// MarkComputeFaulty kills a tile's compute chiplet.
func (m *ChipletFaultMap) MarkComputeFaulty(c geom.Coord) {
	i := m.grid.Index(c)
	if !m.compute[i] {
		m.compute[i] = true
		m.count++
	}
}

// MarkMemoryFaulty kills a tile's memory chiplet.
func (m *ChipletFaultMap) MarkMemoryFaulty(c geom.Coord) {
	i := m.grid.Index(c)
	if !m.memory[i] {
		m.memory[i] = true
		m.count++
	}
}

// RoutesEW reports whether the tile can carry east-west traffic (its
// compute chiplet, hence its routers, must work).
func (m *ChipletFaultMap) RoutesEW(c geom.Coord) bool {
	if !m.grid.In(c) {
		return false
	}
	return !m.compute[m.grid.Index(c)]
}

// RoutesNS reports whether the tile can carry north-south traffic
// (routers working AND the memory chiplet's feedthroughs intact).
func (m *ChipletFaultMap) RoutesNS(c geom.Coord) bool {
	if !m.grid.In(c) {
		return false
	}
	i := m.grid.Index(c)
	return !m.compute[i] && !m.memory[i]
}

// TileUsable reports whether a tile can source/sink traffic (compute
// chiplet alive; a dead memory chiplet loses capacity, not the cores).
func (m *ChipletFaultMap) TileUsable(c geom.Coord) bool { return m.RoutesEW(c) }

// ToTileMap returns the conservative tile-level projection every other
// analysis uses: a tile is faulty if either chiplet is.
func (m *ChipletFaultMap) ToTileMap() *fault.Map {
	fm := fault.NewMap(m.grid)
	m.grid.All(func(c geom.Coord) {
		i := m.grid.Index(c)
		if m.compute[i] || m.memory[i] {
			fm.MarkFaulty(c)
		}
	})
	return fm
}

// RandomChiplets marks exactly n distinct faulty chiplets drawn
// uniformly from the 2*tiles chiplet population.
func RandomChiplets(grid geom.Grid, n int, rng *rand.Rand) *ChipletFaultMap {
	total := 2 * grid.Size()
	if n < 0 || n > total {
		panic("noc: chiplet fault count out of range")
	}
	m := NewChipletFaultMap(grid)
	perm := rng.Perm(total)
	for _, idx := range perm[:n] {
		tile := grid.Coord(idx / 2)
		if idx%2 == 0 {
			m.MarkComputeFaulty(tile)
		} else {
			m.MarkMemoryFaulty(tile)
		}
	}
	return m
}

// ChipletAnalyzer answers path queries against chiplet-level faults
// with the same prefix-sum trick as Analyzer: horizontal segments need
// RoutesEW along the row; vertical segments need RoutesNS along the
// column.
type ChipletAnalyzer struct {
	grid geom.Grid
	m    *ChipletFaultMap
	// rowPrefix[y][x]: tiles in row y, cols [0,x), that cannot route EW.
	rowPrefix [][]int
	// colPrefix[x][y]: tiles in col x, rows [0,y), that cannot route NS.
	colPrefix [][]int
}

// NewChipletAnalyzer builds the prefix sums.
func NewChipletAnalyzer(m *ChipletFaultMap) *ChipletAnalyzer {
	g := m.grid
	a := &ChipletAnalyzer{grid: g, m: m,
		rowPrefix: make([][]int, g.H), colPrefix: make([][]int, g.W)}
	for y := 0; y < g.H; y++ {
		a.rowPrefix[y] = make([]int, g.W+1)
		for x := 0; x < g.W; x++ {
			v := 0
			if !m.RoutesEW(geom.C(x, y)) {
				v = 1
			}
			a.rowPrefix[y][x+1] = a.rowPrefix[y][x] + v
		}
	}
	for x := 0; x < g.W; x++ {
		a.colPrefix[x] = make([]int, g.H+1)
		for y := 0; y < g.H; y++ {
			v := 0
			if !m.RoutesNS(geom.C(x, y)) {
				v = 1
			}
			a.colPrefix[x][y+1] = a.colPrefix[x][y] + v
		}
	}
	return a
}

func (a *ChipletAnalyzer) rowBlocked(y, x0, x1 int) bool {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	return a.rowPrefix[y][x1+1]-a.rowPrefix[y][x0] > 0
}

func (a *ChipletAnalyzer) colBlocked(x, y0, y1 int) bool {
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return a.colPrefix[x][y1+1]-a.colPrefix[x][y0] > 0
}

// PathClear reports whether the DoR route passes. Horizontal travel
// needs working routers; vertical travel additionally needs the
// feedthroughs of every tile it passes — including the turn tile and
// the endpoints of the vertical segment, except that a vertical
// segment's final stop (ejection) only needs the router.
func (a *ChipletAnalyzer) PathClear(net Network, src, dst geom.Coord) bool {
	if !a.m.TileUsable(src) || !a.m.TileUsable(dst) {
		return false
	}
	if net == XY {
		if a.rowBlocked(src.Y, src.X, dst.X) {
			return false
		}
		if src.Y == dst.Y {
			return true
		}
		// Vertical segment along column dst.X: intermediate tiles need
		// feedthroughs; the final tile only ejects.
		lo, hi := minInt(src.Y, dst.Y), maxInt(src.Y, dst.Y)
		if src.Y < dst.Y {
			hi-- // dst is the top: ejection, no feedthrough needed
		} else {
			lo++ // dst is the bottom
		}
		return !a.colBlocked(dst.X, lo, hi)
	}
	// YX: vertical first along src.X (the starting tile injects, no
	// feedthrough needed for itself... it does need NS to forward
	// upward: injection enters the router and leaves vertically, which
	// crosses its own feedthrough toward the neighbor; conservatively
	// require NS on all but the last vertical tile).
	if src.Y != dst.Y {
		lo, hi := minInt(src.Y, dst.Y), maxInt(src.Y, dst.Y)
		if src.Y < dst.Y {
			hi--
		} else {
			lo++
		}
		if a.colBlocked(src.X, lo, hi) {
			return false
		}
	}
	return !a.rowBlocked(dst.Y, src.X, dst.X)
}

// PairUsableDual mirrors Analyzer.PairUsableDual at chiplet granularity.
func (a *ChipletAnalyzer) PairUsableDual(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) || a.PathClear(YX, s, d)
}

// PairUsableSingle mirrors Analyzer.PairUsableSingle.
func (a *ChipletAnalyzer) PairUsableSingle(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) && a.PathClear(XY, d, s)
}

// AllPairs aggregates over unordered usable-tile pairs.
func (a *ChipletAnalyzer) AllPairs() PairStats {
	var usable []geom.Coord
	a.grid.All(func(c geom.Coord) {
		if a.m.TileUsable(c) {
			usable = append(usable, c)
		}
	})
	st := PairStats{HealthyTiles: len(usable)}
	for i, s := range usable {
		for _, d := range usable[i+1:] {
			st.Pairs++
			if !a.PairUsableSingle(s, d) {
				st.DisconnectedSingle++
			}
			if !a.PairUsableDual(s, d) {
				st.DisconnectedDual++
				if SameRowOrColumn(s, d) {
					st.DualSameRowCol++
				}
			}
		}
	}
	return st
}

// ChipletFig6Point is one row of the chiplet-granularity Fig. 6 sweep.
type ChipletFig6Point struct {
	Chiplets  int // faulty chiplets out of 2*tiles
	PctSingle fault.Stats
	PctDual   fault.Stats
}

// ChipletFig6SweepCtx is the chiplet-granularity Monte Carlo behind the
// `waferscale nocmc -chiplet` refinement: for each faulty-chiplet
// count, the disconnected-pair percentages are averaged over trials
// random chiplet fault maps. Seeding, cancellation and progress are
// fig6Sweep's, as for Fig6SweepCtx.
func ChipletFig6SweepCtx(ctx context.Context, grid geom.Grid, chipletCounts []int, trials int, seed int64, opts Fig6Opts) ([]ChipletFig6Point, error) {
	pts, err := fig6Sweep(ctx, chipletCounts, 2*grid.Size(), trials, seed, opts, func(n int, rng *rand.Rand) PairStats {
		return NewChipletAnalyzer(RandomChiplets(grid, n, rng)).AllPairs()
	})
	out := make([]ChipletFig6Point, len(pts))
	for i, p := range pts {
		out[i] = ChipletFig6Point{Chiplets: p.Faults, PctSingle: p.PctSingle, PctDual: p.PctDual}
	}
	return out, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
