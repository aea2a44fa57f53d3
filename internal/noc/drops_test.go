package noc

import (
	"context"
	"runtime"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// checkDropInvariant asserts the SimStats drop accounting contract:
// Dropped == DroppedQueued + DroppedInFlight, and conservation of
// injected packets once the network is drained.
func checkDropInvariant(t *testing.T, s *Sim) {
	t.Helper()
	st := s.Stats()
	if st.Dropped != st.DroppedQueued+st.DroppedInFlight {
		t.Errorf("drop invariant broken: Dropped=%d, Queued=%d + InFlight=%d",
			st.Dropped, st.DroppedQueued, st.DroppedInFlight)
	}
	if st.Delivered+st.Dropped != st.Injected+st.Forwarded {
		t.Errorf("conservation broken: %+v", st)
	}
}

// TestDropAccountingInvariant kills a router while packets are both
// queued inside it and in flight toward it, so both drop causes fire,
// and checks each is counted exactly once.
func TestDropAccountingInvariant(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	// Block (1,0)'s east link so packets pile up in its FIFOs, then
	// stream along row 0 through it: some packets queue inside (1,0),
	// the rest are on the wire toward it when it dies.
	s.SetLinkDown(geom.C(1, 0), geom.East, true)
	for i := 0; i < 8; i++ {
		if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, uint32(i), 7); err != nil && err != ErrBackpressure {
			t.Fatal(err)
		}
		s.Step()
	}
	queued := s.KillRouter(geom.C(1, 0))
	if queued == 0 {
		t.Fatal("test setup: expected packets queued in the killed router")
	}
	st := s.Stats()
	if st.DroppedQueued != queued || st.Dropped != queued {
		t.Fatalf("after kill: Dropped=%d DroppedQueued=%d, want both %d",
			st.Dropped, st.DroppedQueued, queued)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.DroppedInFlight == 0 {
		t.Error("expected in-flight arrivals at the dead router to be counted in DroppedInFlight")
	}
	checkDropInvariant(t, s)
}

// TestDropInvariantStaticFaults: drops into construction-time faulty
// tiles are in-flight drops (no router ever existed to queue in).
func TestDropInvariantStaticFaults(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(2, 0))
	s := newSim(t, fm)
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 1 || st.DroppedInFlight != 1 || st.DroppedQueued != 0 {
		t.Errorf("static-fault drop misattributed: %+v", st)
	}
	checkDropInvariant(t, s)
}

// TestChipletFig6SweepWorkerInvariance: the chiplet-granularity Monte
// Carlo must return bit-identical curves at any worker count, and more
// faulty chiplets can only disconnect more pairs.
func TestChipletFig6SweepWorkerInvariance(t *testing.T) {
	grid := geom.NewGrid(8, 8)
	counts := []int{2, 6}
	sweep := func(workers int) []ChipletFig6Point {
		pts, err := ChipletFig6SweepCtx(context.Background(), grid, counts, 6, 2021, Fig6Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	ref := sweep(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := sweep(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: point %d = %+v, serial %+v", workers, i, got[i], ref[i])
			}
		}
	}
	if ref[0].PctSingle.Mean > ref[1].PctSingle.Mean {
		t.Errorf("single-network disconnection not monotone: %+v", ref)
	}
	for _, p := range ref {
		if p.PctDual.Mean > p.PctSingle.Mean {
			t.Errorf("dual curve above single at %d chiplets", p.Chiplets)
		}
	}
}

// TestFig6SweepWorkerInvariance: the tile-level Fig. 6 sweep is
// likewise worker-count invariant.
func TestFig6SweepWorkerInvariance(t *testing.T) {
	grid := geom.NewGrid(8, 8)
	ref := mustFig6(t, grid, []int{3}, 8, 7, 1)
	for _, workers := range []int{4, 0} {
		got := mustFig6(t, grid, []int{3}, 8, 7, workers)
		if got[0] != ref[0] {
			t.Fatalf("workers=%d: %+v != serial %+v", workers, got[0], ref[0])
		}
	}
}
