package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// nocTrafficDriver injects a deterministic pseudo-random packet stream.
// Rejections — backpressure, or an endpoint on a tile killed mid-run —
// are part of the stream: with identical sim state the accept/reject
// pattern, and therefore the packet ID sequence, must match exactly
// between an original and its fork.
type nocTrafficDriver struct {
	rng  *rand.Rand
	grid geom.Grid
}

func (d *nocTrafficDriver) tick(t *testing.T, s *Sim) (accepted int) {
	t.Helper()
	for i := 0; i < 3; i++ {
		src := geom.C(d.rng.Intn(d.grid.W), d.rng.Intn(d.grid.H))
		dst := geom.C(d.rng.Intn(d.grid.W), d.rng.Intn(d.grid.H))
		net := Network(d.rng.Intn(2))
		if _, err := s.Inject(net, src, dst, Request, uint32(i), d.rng.Uint64()); err != nil {
			continue
		}
		accepted++
	}
	return accepted
}

// TestSimForkMidTraffic forks the NoC with packets queued in router
// FIFOs and in flight on links, after a runtime router kill and with a
// link out of service, then drives the original and the fork with
// identical traffic and compares every observable each cycle.
func TestSimForkMidTraffic(t *testing.T) {
	grid := geom.NewGrid(8, 8)
	fm := fault.NewMap(grid)
	s := newSim(t, fm)
	s.RetainDelivered = true

	// Warm phase: saturating traffic so FIFOs are non-empty and flights
	// are airborne at the fork point, plus runtime damage.
	warm := &nocTrafficDriver{rng: rand.New(rand.NewSource(11)), grid: grid}
	for c := 0; c < 150; c++ {
		warm.tick(t, s)
		s.Step()
	}
	s.KillRouter(geom.C(3, 3))
	fm.MarkFaulty(geom.C(3, 3))
	s.SetLinkDown(geom.C(1, 1), geom.East, true)
	for c := 0; c < 50; c++ {
		warm.tick(t, s)
		s.Step()
	}

	f := s.Fork(fm.Clone())
	if f.Cycle() != s.Cycle() {
		t.Fatalf("fork cycle %d, original %d", f.Cycle(), s.Cycle())
	}

	// Continuation: identical op streams on both sims, lockstep compare.
	d1 := &nocTrafficDriver{rng: rand.New(rand.NewSource(23)), grid: grid}
	d2 := &nocTrafficDriver{rng: rand.New(rand.NewSource(23)), grid: grid}
	for c := 0; c < 400; c++ {
		a1 := d1.tick(t, s)
		a2 := d2.tick(t, f)
		if a1 != a2 {
			t.Fatalf("cycle %d: backpressure pattern diverged (%d vs %d accepts)", c, a1, a2)
		}
		s.Step()
		f.Step()
		if s.Stats() != f.Stats() {
			t.Fatalf("cycle %d: stats diverged\noriginal %+v\nfork     %+v", c, s.Stats(), f.Stats())
		}
	}
	if s.Cycle() != f.Cycle() || s.Drained() != f.Drained() {
		t.Fatalf("cycle/drained diverged: %d/%v vs %d/%v", s.Cycle(), s.Drained(), f.Cycle(), f.Drained())
	}
	ds, df := s.Delivered(), f.Delivered()
	if len(ds) != len(df) {
		t.Fatalf("delivered counts diverged: %d vs %d", len(ds), len(df))
	}
	for i := range ds {
		if ds[i] != df[i] {
			t.Fatalf("delivered[%d] diverged:\noriginal %+v\nfork     %+v", i, ds[i], df[i])
		}
	}
	for net := 0; net < 2; net++ {
		for tile := 0; tile < grid.Size(); tile++ {
			c := grid.Coord(tile)
			for _, dir := range geom.Dirs() {
				if su, fu := s.LinkUse(Network(net), c, dir), f.LinkUse(Network(net), c, dir); su != fu {
					t.Fatalf("link use diverged at net %d %v %v: %d vs %d", net, c, dir, su, fu)
				}
			}
		}
	}
}

// TestSimForkIndependence: stepping the original must not disturb the
// fork's state (deep copy, no aliased FIFOs or flight lists).
func TestSimForkIndependence(t *testing.T) {
	grid := geom.NewGrid(4, 4)
	fm := fault.NewMap(grid)
	s := newSim(t, fm)
	d := &nocTrafficDriver{rng: rand.New(rand.NewSource(41)), grid: grid}
	for c := 0; c < 40; c++ {
		d.tick(t, s)
		s.Step()
	}
	f := s.Fork(fm.Clone())
	atFork := f.Stats()
	for range 200 {
		s.Step()
	}
	if f.Stats() != atFork || f.Cycle() != s.Cycle()-200 {
		t.Fatalf("original stepping disturbed the fork: %+v vs %+v", f.Stats(), atFork)
	}
}
