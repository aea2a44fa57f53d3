package noc

import (
	"math/rand"
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TestInjectAtKilledRouterErrors is the regression for the nil-router
// panic: Inject at a tile whose router was removed by KillRouter must
// return an error (like Forward always has), not dereference nil.
func TestInjectAtKilledRouterErrors(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.KillRouter(geom.C(1, 1))
	// The fault map was NOT updated (noc-level kill, no machine layer),
	// so the faulty-tile guard does not catch this: only the router
	// nil check can.
	if fm.Faulty(geom.C(1, 1)) {
		t.Fatal("test premise broken: KillRouter must not mutate the fault map")
	}
	if _, err := s.Inject(XY, geom.C(1, 1), geom.C(3, 3), Request, 1, 0); err == nil {
		t.Fatal("inject at a killed router must fail, not panic")
	} else if err == ErrBackpressure {
		t.Fatalf("wrong error class: %v", err)
	}
	// Injecting elsewhere still works and the network still drains.
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 3), Request, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
}

// wedge parks `count` packets in the FIFOs at tile c by sending them
// toward a down link east of c.
func wedge(t *testing.T, s *Sim, src, c geom.Coord, count int) {
	t.Helper()
	s.SetLinkDown(c, geom.East, true)
	for i := 0; i < count; i++ {
		if _, err := s.Inject(XY, src, geom.C(c.X+2, c.Y), Request, uint32(i), uint64(i)<<8); err != nil {
			t.Fatal(err)
		}
		for range 8 {
			s.Step()
		}
	}
}

// TestCorruptPayloadHitsRingHead pins the head-of-queue corruption
// semantics on the ring buffers: after the ring head pointer has
// wrapped (packets pushed, popped, pushed again), CorruptPayload must
// hit the oldest queued packet — the one delivered first — not
// whatever sits at buffer index 0.
func TestCorruptPayloadHitsRingHead(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(6, 6))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	// First traffic wave rotates the FIFO rings at (2,0): packets enter
	// and leave, advancing each ring's head pointer past index 0.
	for i := 0; i < 6; i++ {
		if _, err := s.Inject(XY, geom.C(0, 0), geom.C(4, 0), Request, 0xAA00+uint32(i), 1); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			s.Step()
		}
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	// Now wedge fresh packets at (2,0) behind a down link and corrupt.
	wedge(t, s, geom.C(0, 0), geom.C(2, 0), 3)
	if !s.CorruptPayload(geom.C(2, 0), 0xF0) {
		t.Fatal("expected to hit a parked packet")
	}
	s.SetLinkDown(geom.C(2, 0), geom.East, false)
	delivered := recordDeliveries(s, false)
	if err := s.RunUntilDrained(2000); err != nil {
		t.Fatal(err)
	}
	got := *delivered
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3", len(got))
	}
	// The corrupted packet must be the head of the queue at corruption
	// time = the oldest parked packet (payload 0) = the first delivered
	// afterwards; the younger two (0x100, 0x200) must pass untouched.
	want := []uint64{0 ^ 0xF0, 1 << 8, 2 << 8}
	for i, p := range got {
		if p.Payload != want[i] {
			t.Errorf("delivered[%d] payload = %#x, want %#x", i, p.Payload, want[i])
		}
	}
	if s.Stats().BitErrors != 1 {
		t.Errorf("BitErrors = %d, want 1", s.Stats().BitErrors)
	}
}

// TestCongestionReportCountsRingFIFOs checks the congestion report's
// queue accounting against the ring buffers: the queued total must
// equal the number of wedged packets, and the report must name the
// most-backed-up router.
func TestCongestionReportCountsRingFIFOs(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(6, 6))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	wedge(t, s, geom.C(0, 0), geom.C(2, 0), 4)
	if s.Drained() {
		t.Fatal("network should be wedged")
	}
	rep := s.CongestionReport(4)
	if !strings.Contains(rep, "4 queued") {
		t.Errorf("report should count 4 queued packets: %q", rep)
	}
	if !strings.Contains(rep, "(2,0)") {
		t.Errorf("report should name the wedged router (2,0): %q", rep)
	}
	// Release and verify the counted packets were real (all deliver).
	s.SetLinkDown(geom.C(2, 0), geom.East, false)
	if err := s.RunUntilDrained(2000); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Delivered != 4 {
		t.Errorf("Delivered = %d, want the 4 counted packets", s.Stats().Delivered)
	}
}

// TestAnalyzerResetMatchesNew: Reset-recycled analyzers must produce
// exactly the same connectivity answers as freshly built ones, across
// maps of the same and different grid shapes.
func TestAnalyzerResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recycled := &Analyzer{}
	grids := []geom.Grid{
		geom.NewGrid(8, 8), geom.NewGrid(8, 8), geom.NewGrid(12, 5),
		geom.NewGrid(5, 12), geom.NewGrid(8, 8), geom.NewGrid(1, 1),
	}
	for trial, g := range grids {
		fm := fault.Random(g, g.Size()/8, rng)
		recycled.Reset(fm)
		fresh := NewAnalyzer(fm)
		if got, want := recycled.AllPairs(), fresh.AllPairs(); got != want {
			t.Fatalf("trial %d (%v): recycled AllPairs %+v != fresh %+v", trial, g, got, want)
		}
		// Spot-check individual queries too.
		for i := 0; i < 50; i++ {
			s := geom.C(rng.Intn(g.W), rng.Intn(g.H))
			d := geom.C(rng.Intn(g.W), rng.Intn(g.H))
			for _, net := range []Network{XY, YX} {
				if recycled.PathClear(net, s, d) != fresh.PathClear(net, s, d) {
					t.Fatalf("trial %d: PathClear(%v,%v,%v) diverges", trial, net, s, d)
				}
			}
		}
	}
}

// TestFig6SweepPooledAnalyzersBitIdentical: the pooled-Reset Monte
// Carlo must reproduce the exact point values of a per-trial
// fresh-map, NewAnalyzer loop (here recomputed directly), at several
// worker counts.
func TestFig6SweepPooledAnalyzersBitIdentical(t *testing.T) {
	grid := geom.NewGrid(12, 12)
	counts := []int{2, 5}
	const trials, seed = 6, 77
	want := mustFig6(t, grid, counts, trials, seed, 1)
	for _, workers := range []int{2, 4} {
		got := mustFig6(t, grid, counts, trials, seed, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d point %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
	// And against the manual per-trial fresh-map, fresh-analyzer
	// computation.
	for i, n := range counts {
		single := make([]float64, trials)
		dual := make([]float64, trials)
		for trial := range single {
			rng := rand.New(rand.NewSource(fault.TrialSeed(seed, n, trial)))
			st := NewAnalyzer(fault.Random(grid, n, rng)).AllPairs()
			single[trial] = st.PctSingle()
			dual[trial] = st.PctDual()
		}
		if want[i].PctSingle != fault.Collect(single) || want[i].PctDual != fault.Collect(dual) {
			t.Errorf("fault count %d: pooled sweep diverges from fresh-analyzer reference", n)
		}
	}
}
