package noc

import (
	"math/rand"
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// congestedSim builds a sim with traffic parked behind a down link so
// CongestionReport has routers to describe.
func congestedSim(t *testing.T) *Sim {
	t.Helper()
	g := geom.NewGrid(5, 5)
	s, err := NewSim(fault.NewMap(g), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Block every link out of the source column, then inject eastbound
	// traffic that can never move.
	for y := 0; y < g.H; y++ {
		s.SetLinkDown(geom.Coord{X: 0, Y: y}, geom.East, true)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		src := geom.Coord{X: 0, Y: rng.Intn(g.H)}
		dst := geom.Coord{X: 4, Y: rng.Intn(g.H)}
		_, _ = s.Inject(XY, src, dst, Request, uint32(i), uint64(i))
	}
	for range 20 {
		s.Step()
	}
	return s
}

// TestCongestionReportTopKEdgeCases covers the untested topK paths:
// zero, negative (previously sliced to worst[:-1] and panicked on an
// empty worst list), and larger than the router count.
func TestCongestionReportTopKEdgeCases(t *testing.T) {
	s := congestedSim(t)
	full := s.CongestionReport(1 << 20) // far beyond the router count
	if !strings.Contains(full, "queued") {
		t.Fatalf("report missing summary: %q", full)
	}
	if !strings.Contains(full, "×") {
		t.Fatalf("huge topK should list congested routers: %q", full)
	}
	for _, topK := range []int{0, -1, -100} {
		r := s.CongestionReport(topK)
		if strings.Contains(r, "×") {
			t.Fatalf("topK=%d should suppress per-router detail: %q", topK, r)
		}
		if !strings.Contains(r, "queued") {
			t.Fatalf("topK=%d lost the summary: %q", topK, r)
		}
	}
	// More routers than congested ones: detail for each congested
	// router, no panic, no blank entries.
	some := s.CongestionReport(3)
	if !strings.Contains(some, "×") {
		t.Fatalf("topK=3 should list routers: %q", some)
	}
}

// TestCongestionReportDrained checks the report of an idle network is
// well-formed for any topK, including negative.
func TestCongestionReportDrained(t *testing.T) {
	g := geom.NewGrid(4, 4)
	s, err := NewSim(fault.NewMap(g), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Inject(XY, geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 2}, Request, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Drained() {
		t.Fatal("sim not drained")
	}
	for _, topK := range []int{-1, 0, 4, 1000} {
		r := s.CongestionReport(topK)
		if !strings.Contains(r, "0 in flight, 0 queued in 0 routers") {
			t.Fatalf("drained report (topK=%d) = %q", topK, r)
		}
		if strings.Contains(r, "×") {
			t.Fatalf("drained report (topK=%d) lists routers: %q", topK, r)
		}
	}
}
