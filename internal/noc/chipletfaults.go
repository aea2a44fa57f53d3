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
//     still routes east-west and still ejects, but nothing departs it
//     north or south (and its shared banks are lost).
//
// The tile-level analyses elsewhere in this package conservatively
// treat any chiplet fault as a whole-tile fault. The chiplet sweep
// refines that on TopoAnalyzer itself: a dead compute chiplet is a
// faulty tile, and a dead memory chiplet is a fault on its tile's
// directed N and S out-ports. The comparison quantifies how much
// pessimism the tile-level abstraction costs.

// ChipletFig6Point is one row of the chiplet-granularity Fig. 6 sweep.
type ChipletFig6Point struct {
	Chiplets  int // faulty chiplets out of 2*tiles
	PctSingle fault.Stats
	PctDual   fault.Stats
}

// ChipletFig6SweepCtx is the chiplet-granularity Monte Carlo behind the
// `waferscale nocmc -chiplet` refinement on the mesh: for each
// faulty-chiplet count, the disconnected-pair percentages are averaged
// over trials random chiplet fault maps. Seeding, cancellation and
// progress are fig6Sweep's, as for Fig6SweepCtx; recycled per-worker
// scratch keeps a steady-state trial allocation-free.
func ChipletFig6SweepCtx(ctx context.Context, grid geom.Grid, chipletCounts []int, trials int, seed int64, opts Fig6Opts) ([]ChipletFig6Point, error) {
	topo := MeshTopology(grid)
	newScratch := func() *chipletScratch { return newChipletScratch(grid) }
	pts, err := fig6Sweep(ctx, chipletCounts, 2*grid.Size(), trials, seed, opts, newScratch, func(sc *chipletScratch, n int, rng *rand.Rand) PairStats {
		sc.draw(n, rng)
		sc.a.reset(topo, sc.compute, sc.blocked)
		return sc.a.AllPairs()
	})
	out := make([]ChipletFig6Point, len(pts))
	for i, p := range pts {
		out[i] = ChipletFig6Point{Chiplets: p.Faults, PctSingle: p.PctSingle, PctDual: p.PctDual}
	}
	return out, err
}

// chipletScratch is one worker's chiplet-trial storage.
type chipletScratch struct {
	// s samples the 2*tiles chiplet population as a grid twice as wide
	// as the tile grid: tile (x, y) owns cells (2x, y), its compute
	// chiplet, and (2x+1, y), its memory chiplet. Cell (x, y)'s
	// row-major index is then 2*tile+kind, the chiplet index a
	// rand.Perm(2*tiles) draw names, so Draw replays that draw exactly.
	s       *fault.Sampler
	compute *fault.Map // tiles whose compute chiplet is dead
	blocked []uint16   // N|S out-port masks of live tiles with a dead memory chiplet
	a       TopoAnalyzer
}

func newChipletScratch(grid geom.Grid) *chipletScratch {
	return &chipletScratch{
		s:       fault.NewSampler(geom.NewGrid(2*grid.W, grid.H)),
		compute: fault.NewMap(grid),
		blocked: make([]uint16, grid.Size()),
	}
}

// draw marks exactly n distinct faulty chiplets drawn uniformly from
// rng into the scratch's compute map and port masks.
func (sc *chipletScratch) draw(n int, rng *rand.Rand) {
	chiplets := sc.s.Draw(n, rng)
	sc.compute.Reset()
	g := sc.compute.Grid()
	for i := range sc.blocked {
		c := g.Coord(i)
		sc.blocked[i] = 0
		if chiplets.Faulty(geom.C(2*c.X, c.Y)) {
			sc.compute.MarkFaulty(c)
		} else if chiplets.Faulty(geom.C(2*c.X+1, c.Y)) {
			sc.blocked[i] = 1<<portN | 1<<portS
		}
	}
}
