package noc

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/parallel"
)

// Analyzer answers path-clear queries against one fault map in O(1)
// per query using fault-count prefix sums along every row and column.
// A DoR route is a row segment followed by a column segment (or vice
// versa), so "any faulty tile on the route?" reduces to two range-sum
// lookups. This is what makes the Fig. 6 Monte Carlo over ~10^6 pairs
// per fault map tractable.
type Analyzer struct {
	grid geom.Grid
	fm   *fault.Map
	// rowPrefix[y][x] = number of faulty tiles in row y, columns 0..x-1.
	rowPrefix [][]int
	// colPrefix[x][y] = number of faulty tiles in column x, rows 0..y-1.
	colPrefix [][]int
}

// NewAnalyzer builds the prefix sums for a fault map. The analyzer
// snapshots the map: later map mutations are not reflected.
func NewAnalyzer(fm *fault.Map) *Analyzer {
	a := &Analyzer{}
	a.Reset(fm)
	return a
}

// Reset rebuilds the analyzer's prefix sums for a (possibly different)
// fault map, reusing the backing arrays whenever the grid shape allows.
// Monte Carlo loops call this once per trial map instead of paying
// NewAnalyzer's allocations each time; the zero Analyzer is also a
// valid Reset target.
func (a *Analyzer) Reset(fm *fault.Map) {
	g := fm.Grid()
	a.fm = fm
	if a.grid != g {
		a.rowPrefix = prefixSlabs(a.rowPrefix, g.H, g.W+1)
		a.colPrefix = prefixSlabs(a.colPrefix, g.W, g.H+1)
		a.grid = g
	}
	for y := 0; y < g.H; y++ {
		row := a.rowPrefix[y]
		for x := 0; x < g.W; x++ {
			v := 0
			if fm.Faulty(geom.C(x, y)) {
				v = 1
			}
			row[x+1] = row[x] + v
		}
	}
	for x := 0; x < g.W; x++ {
		col := a.colPrefix[x]
		for y := 0; y < g.H; y++ {
			v := 0
			if fm.Faulty(geom.C(x, y)) {
				v = 1
			}
			col[y+1] = col[y] + v
		}
	}
}

// prefixSlabs returns an outer-by-inner prefix-sum table, reusing old's
// storage when it is exactly the right shape already (the common case:
// Reset with a same-sized grid).
func prefixSlabs(old [][]int, outer, inner int) [][]int {
	if len(old) == outer && (outer == 0 || len(old[0]) == inner) {
		return old
	}
	t := make([][]int, outer)
	slab := make([]int, outer*inner)
	for i := range t {
		t[i] = slab[i*inner : (i+1)*inner]
	}
	return t
}

// Grid returns the analyzed array shape.
func (a *Analyzer) Grid() geom.Grid { return a.grid }

// rowFaults returns the number of faulty tiles in row y between columns
// x0 and x1 inclusive (any order).
func (a *Analyzer) rowFaults(y, x0, x1 int) int {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	return a.rowPrefix[y][x1+1] - a.rowPrefix[y][x0]
}

// colFaults returns the number of faulty tiles in column x between rows
// y0 and y1 inclusive (any order).
func (a *Analyzer) colFaults(x, y0, y1 int) int {
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return a.colPrefix[x][y1+1] - a.colPrefix[x][y0]
}

// PathClear reports whether the DoR route from src to dst on the given
// network passes only healthy tiles (endpoints included).
func (a *Analyzer) PathClear(net Network, src, dst geom.Coord) bool {
	if net == XY {
		// Row src.Y from src.X to dst.X, then column dst.X from src.Y
		// to dst.Y. The turn tile (dst.X, src.Y) is covered by both
		// ranges; double counting does not change emptiness.
		return a.rowFaults(src.Y, src.X, dst.X) == 0 &&
			a.colFaults(dst.X, src.Y, dst.Y) == 0
	}
	return a.colFaults(src.X, src.Y, dst.Y) == 0 &&
		a.rowFaults(dst.Y, src.X, dst.X) == 0
}

// PairUsableSingle reports whether two-way communication between a and
// b works on a single X-Y network: the request path a->b and the
// response path b->a (a different set of tiles!) must both be clear.
// This is the "conventional scheme with one DoR network" of Fig. 6.
func (a *Analyzer) PairUsableSingle(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) && a.PathClear(XY, d, s)
}

// PairUsableDual reports whether two-way communication works with both
// networks: a request sent X-Y is answered Y-X over the *same* tiles
// (and vice versa), so the pair works iff either physical path is clear
// — the paper's "two-way communication is possible whenever one
// non-faulty path exists".
func (a *Analyzer) PairUsableDual(s, d geom.Coord) bool {
	return a.PathClear(XY, s, d) || a.PathClear(YX, s, d)
}

// PairStats aggregates two-way connectivity over all unordered pairs of
// distinct healthy tiles.
type PairStats struct {
	HealthyTiles       int
	Pairs              int // unordered pairs of distinct healthy tiles
	DisconnectedSingle int // pairs unusable on a single X-Y network
	DisconnectedDual   int // pairs unusable even with both networks
	// DualSameRowCol counts dual-disconnected pairs that share a row or
	// column — the paper notes the residual disconnections are "mostly"
	// these single-path pairs.
	DualSameRowCol int
}

// PctSingle returns the percentage of pairs disconnected with one
// network.
func (s PairStats) PctSingle() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return 100 * float64(s.DisconnectedSingle) / float64(s.Pairs)
}

// PctDual returns the percentage of pairs disconnected with both
// networks available.
func (s PairStats) PctDual() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return 100 * float64(s.DisconnectedDual) / float64(s.Pairs)
}

// AllPairs scans every unordered pair of distinct healthy tiles and
// aggregates two-way connectivity — one Fig. 6 sample. Dual-network
// disconnection implies single-network disconnection (if both physical
// paths are blocked, the single network's request path is too), so the
// dual curve always sits at or below the single curve.
func (a *Analyzer) AllPairs() PairStats {
	healthy := a.fm.HealthyCoords()
	st := PairStats{HealthyTiles: len(healthy)}
	for i, s := range healthy {
		for _, d := range healthy[i+1:] {
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

// Fig6Point is one point of the paper's Fig. 6 curves.
type Fig6Point struct {
	Faults    int
	PctSingle fault.Stats // % disconnected pairs, one DoR network
	PctDual   fault.Stats // % disconnected pairs, two DoR networks
}

// Fig6Opts carries the host-side knobs of a Fig. 6 sweep — none of
// them affect the computed curves.
type Fig6Opts struct {
	// Workers bounds the trial pool; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each completed trial with
	// the cumulative trials finished across the whole sweep and the
	// total (len(faultCounts) * trials). It runs on the trial worker
	// goroutines and must be safe for concurrent use.
	Progress func(done, total int)
}

// Fig6SweepCtx is the paper's Fig. 6 Monte Carlo on the mesh: for each
// fault count, the percentage of disconnected source-destination pairs
// averaged over randomly generated tile fault maps, for the
// conventional single-network scheme and the dual-network scheme. It
// uses the prefix-sum Analyzer; cancellation, progress and seeding are
// fig6Sweep's.
func Fig6SweepCtx(ctx context.Context, grid geom.Grid, faultCounts []int, trials int, seed int64, opts Fig6Opts) ([]Fig6Point, error) {
	// A trial recycles a sampler and an analyzer via Reset instead of
	// allocating a map, a permutation and prefix-sum slabs (both are
	// pure scratch; recycling cannot affect the results).
	type scratch struct {
		s *fault.Sampler
		a Analyzer
	}
	newScratch := func() *scratch { return &scratch{s: fault.NewSampler(grid)} }
	return fig6Sweep(ctx, faultCounts, grid.Size(), trials, seed, opts, newScratch, func(sc *scratch, n int, rng *rand.Rand) PairStats {
		sc.a.Reset(sc.s.Draw(n, rng))
		return sc.a.AllPairs()
	})
}

// fig6Sweep is the one Fig. 6 loop behind the mesh, topology and
// chiplet sweeps. For each fault count n (each within 0..maxFaults) it
// runs trials calls of trial on the bounded pool (opts.Workers); trial
// i of count n draws from a rand.Rand freshly seeded with
// fault.TrialSeed(seed, n, i), so the curves are bit-identical at any
// worker count. Each call gets scratch from newScratch or recycled from
// an earlier trial of the same sweep; trial must leave nothing in it
// that changes a later trial's result. One trial yields both curves,
// so the single- and dual-network samples are paired per fault map. On
// ctx cancellation it returns the points of the counts whose every
// trial finished (a prefix of faultCounts, possibly empty) together
// with ctx.Err(); trials already in flight finish but a half-swept
// count is discarded.
func fig6Sweep[S any](ctx context.Context, faultCounts []int, maxFaults, trials int, seed int64, opts Fig6Opts,
	newScratch func() S, trial func(sc S, n int, rng *rand.Rand) PairStats) ([]Fig6Point, error) {
	if trials < 1 {
		return nil, fmt.Errorf("noc: Fig. 6 trials %d < 1", trials)
	}
	for _, n := range faultCounts {
		if n < 0 || n > maxFaults {
			return nil, fmt.Errorf("noc: Fig. 6 fault count %d outside 0..%d", n, maxFaults)
		}
	}
	total := len(faultCounts) * trials
	// Each trial reseeds a recycled generator instead of building a
	// ~5 KB source (Seed fully resets the source's state, so recycling
	// cannot affect the results) and takes the scratch that came with
	// it. No more trials run at once than the pool has workers, so at
	// most that many pairs exist and the buffer always has room for the
	// one a trial returns. The free list dies with the call.
	type worker struct {
		rng *rand.Rand
		sc  S
	}
	free := make(chan worker, parallel.Workers(opts.Workers, trials))
	var done atomic.Int64
	single := make([]float64, trials)
	dual := make([]float64, trials)
	out := make([]Fig6Point, 0, len(faultCounts))
	for k, n := range faultCounts {
		err := parallel.ForEach(ctx, trials, opts.Workers, func(i int) error {
			var w worker
			select {
			case w = <-free:
			default:
				w = worker{rand.New(rand.NewSource(0)), newScratch()}
			}
			w.rng.Seed(fault.TrialSeed(seed, n, i))
			st := trial(w.sc, n, w.rng)
			free <- w
			single[i], dual[i] = st.PctSingle(), st.PctDual()
			d := done.Add(1)
			if opts.Progress != nil {
				opts.Progress(int(d), total)
			}
			return nil
		})
		// A cancel that lands as the count's last trial finishes still
		// leaves every sample of the count in place.
		if done.Load() == int64((k+1)*trials) {
			out = append(out, Fig6Point{Faults: n, PctSingle: fault.Collect(single), PctDual: fault.Collect(dual)})
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
