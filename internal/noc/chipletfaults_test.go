package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// chipletFaults is a test-side chiplet fault set: which tiles have a
// dead compute chiplet and which a dead memory chiplet.
type chipletFaults struct {
	grid            geom.Grid
	compute, memory []bool
}

func newChipletFaults(g geom.Grid) *chipletFaults {
	return &chipletFaults{grid: g, compute: make([]bool, g.Size()), memory: make([]bool, g.Size())}
}

// randomChipletFaults marks the first n chiplets of rng.Perm(2*tiles),
// where chiplet 2*tile is the tile's compute chiplet and 2*tile+1 its
// memory chiplet.
func randomChipletFaults(g geom.Grid, n int, rng *rand.Rand) *chipletFaults {
	f := newChipletFaults(g)
	for _, idx := range rng.Perm(2 * g.Size())[:n] {
		if idx%2 == 0 {
			f.compute[idx/2] = true
		} else {
			f.memory[idx/2] = true
		}
	}
	return f
}

// scratch projects the faults the way the chiplet sweep's draw does: a
// dead compute chiplet is a faulty tile, and a dead memory chiplet
// blocks the N and S out-ports of a live tile.
func (f *chipletFaults) scratch() *chipletScratch {
	sc := newChipletScratch(f.grid)
	for i := range sc.blocked {
		switch {
		case f.compute[i]:
			sc.compute.MarkFaulty(f.grid.Coord(i))
		case f.memory[i]:
			sc.blocked[i] = 1<<portN | 1<<portS
		}
	}
	return sc
}

// analyzer is the masked TopoAnalyzer over the faults on the mesh.
func (f *chipletFaults) analyzer() *TopoAnalyzer {
	sc := f.scratch()
	sc.a.reset(MeshTopology(f.grid), sc.compute, sc.blocked)
	return &sc.a
}

// tileMap is the conservative projection the tile-level analyses use:
// a tile is faulty if either of its chiplets is.
func (f *chipletFaults) tileMap() *fault.Map {
	fm := fault.NewMap(f.grid)
	for i := range f.compute {
		if f.compute[i] || f.memory[i] {
			fm.MarkFaulty(f.grid.Coord(i))
		}
	}
	return fm
}

// routeClear is the brute-force reference, walking Route tile by tile:
// every tile the route enters (endpoints included) needs a live compute
// chiplet, and no tile may depart north or south with a dead memory
// chiplet. Arriving vertically and ejecting is fine.
func (f *chipletFaults) routeClear(net Network, s, d geom.Coord) bool {
	path := Route(net, s, d)
	for k, c := range path {
		i := f.grid.Index(c)
		if f.compute[i] || f.memory[i] && k+1 < len(path) && path[k+1].X == c.X {
			return false
		}
	}
	return true
}

// allPairs is AllPairs by brute force over routeClear.
func (f *chipletFaults) allPairs() PairStats {
	var live []geom.Coord
	f.grid.All(func(c geom.Coord) {
		if !f.compute[f.grid.Index(c)] {
			live = append(live, c)
		}
	})
	st := PairStats{HealthyTiles: len(live)}
	for i, s := range live {
		for _, d := range live[i+1:] {
			st.Pairs++
			if !f.routeClear(XY, s, d) || !f.routeClear(XY, d, s) {
				st.DisconnectedSingle++
			}
			if !f.routeClear(XY, s, d) && !f.routeClear(YX, s, d) {
				st.DisconnectedDual++
				if SameRowOrColumn(s, d) {
					st.DualSameRowCol++
				}
			}
		}
	}
	return st
}

// TestChipletPortFaultsMatchRouteWalk is the differential for the
// chiplet sweep's trial: on random chiplet maps over odd and non-square
// grids, the draw must replay rand.Perm(2*tiles) exactly, and the
// analyzer it feeds must agree with the brute-force route walk on both
// networks' PathClear for every ordered pair and on AllPairs. One
// scratch serves every trial of a grid, so stale masks would show.
func TestChipletPortFaultsMatchRouteWalk(t *testing.T) {
	for _, g := range []geom.Grid{geom.NewGrid(3, 3), geom.NewGrid(5, 7), geom.NewGrid(7, 4), geom.NewGrid(8, 8)} {
		topo := MeshTopology(g)
		sc := newChipletScratch(g)
		pick := rand.New(rand.NewSource(int64(g.Size())))
		for trial := 0; trial < 40; trial++ {
			n := pick.Intn(g.Size() + 1)
			seed := pick.Int63()
			f := randomChipletFaults(g, n, rand.New(rand.NewSource(seed)))
			sc.draw(n, rand.New(rand.NewSource(seed)))
			want := f.scratch()
			for i := range sc.blocked {
				if sc.compute.Faulty(g.Coord(i)) != want.compute.Faulty(g.Coord(i)) || sc.blocked[i] != want.blocked[i] {
					t.Fatalf("%v trial %d (%d chiplets): tile %v drawn differently from rand.Perm", g, trial, n, g.Coord(i))
				}
			}
			sc.a.reset(topo, sc.compute, sc.blocked)
			for _, net := range []Network{XY, YX} {
				g.All(func(s geom.Coord) {
					g.All(func(d geom.Coord) {
						if got, ref := sc.a.PathClear(net, s, d), f.routeClear(net, s, d); got != ref {
							t.Fatalf("%v trial %d (%d chiplets): PathClear(%v, %v, %v) = %v, route walk %v", g, trial, n, net, s, d, got, ref)
						}
					})
				})
			}
			if got, ref := sc.a.AllPairs(), f.allPairs(); got != ref {
				t.Fatalf("%v trial %d (%d chiplets): AllPairs %+v, route walk %+v", g, trial, n, got, ref)
			}
		}
	}
}

// TestMemoryFaultOnlyCutsVertical: with one dead memory chiplet, pairs
// routing east-west through that tile still connect; pairs needing the
// vertical feedthrough do not (on that path).
func TestMemoryFaultOnlyCutsVertical(t *testing.T) {
	f := newChipletFaults(geom.NewGrid(8, 8))
	f.memory[f.grid.Index(geom.C(4, 4))] = true
	a := f.analyzer()
	// East-west through (4,4): clear.
	if !a.PathClear(XY, geom.C(0, 4), geom.C(7, 4)) {
		t.Error("EW path through a dead memory chiplet should be clear")
	}
	// Vertical through (4,4): blocked on the XY route (turn column 4).
	if a.PathClear(XY, geom.C(4, 0), geom.C(4, 7)) {
		t.Error("NS path through dead feedthroughs should be blocked")
	}
	// But the pair is still dual-usable? Same column: both DoR paths
	// coincide -> disconnected on both.
	if a.PairUsableDual(geom.C(4, 0), geom.C(4, 7)) {
		t.Error("same-column pair through the dead feedthrough should be cut")
	}
	// An off-column pair can dodge it via the other network.
	if !a.PairUsableDual(geom.C(3, 0), geom.C(4, 7)) {
		t.Error("off-column pair should route around via Y-X")
	}
}

// TestChipletAnalyzerEndpointEjection: a packet may eject at a tile
// whose memory chiplet is dead (the router does the ejection).
func TestChipletAnalyzerEndpointEjection(t *testing.T) {
	f := newChipletFaults(geom.NewGrid(8, 8))
	dst := geom.C(3, 5)
	f.memory[f.grid.Index(dst)] = true
	a := f.analyzer()
	if !a.PathClear(XY, geom.C(3, 0), dst) {
		t.Error("vertical arrival should only need the destination's router")
	}
	// Beyond it is blocked.
	if a.PathClear(XY, geom.C(3, 0), geom.C(3, 7)) {
		t.Error("continuing past the dead feedthrough should be blocked")
	}
}

// TestChipletModelMatchesTileModelForComputeFaults: when only compute
// chiplets fail, the chiplet-level analyzer agrees exactly with the
// conservative tile-level one.
func TestChipletModelMatchesTileModelForComputeFaults(t *testing.T) {
	g := geom.NewGrid(12, 12)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		f := newChipletFaults(g)
		for i := 0; i < 8; i++ {
			f.compute[rng.Intn(g.Size())] = true
		}
		cs := f.analyzer().AllPairs()
		ts := NewAnalyzer(f.tileMap()).AllPairs()
		if cs != ts {
			t.Fatalf("trial %d: chiplet stats %+v != tile stats %+v", trial, cs, ts)
		}
	}
}

// TestFig6ChipletGranularityRefinement: for the same number of faulty
// chiplets, the chiplet-level model (memory faults only cut vertical
// links) disconnects no more — and usually fewer — pairs than the
// conservative whole-tile projection. This bounds the pessimism of the
// tile-level Fig. 6 reproduction.
func TestFig6ChipletGranularityRefinement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-array pair scans")
	}
	g := geom.NewGrid(32, 32)
	var chipletPct, tilePct float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 31))
		f := randomChipletFaults(g, 5, rng)
		cs := f.analyzer().AllPairs()
		ts := NewAnalyzer(f.tileMap()).AllPairs()
		if cs.DisconnectedSingle > ts.DisconnectedSingle {
			t.Errorf("trial %d: chiplet model (%d) worse than tile model (%d)",
				trial, cs.DisconnectedSingle, ts.DisconnectedSingle)
		}
		chipletPct += cs.PctSingle()
		tilePct += ts.PctSingle()
	}
	if chipletPct >= tilePct {
		t.Errorf("refined model should reduce mean disconnection: %.2f%% vs %.2f%%",
			chipletPct/trials, tilePct/trials)
	}
}
