package noc

import (
	"bytes"
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func TestLinkUseCountsTraversals(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One packet east along row 0: (0,0) -> (3,0) crosses three links.
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 3; x++ {
		if got := s.LinkUse(XY, geom.C(x, 0), geom.East); got != 1 {
			t.Errorf("link (%d,0)->E used %d times, want 1", x, got)
		}
	}
	if got := s.LinkUse(XY, geom.C(3, 0), geom.East); got != 0 {
		t.Errorf("link beyond the destination used %d times", got)
	}
	if got := s.LinkUse(YX, geom.C(0, 0), geom.East); got != 0 {
		t.Errorf("other network used %d times", got)
	}
	stats := s.LinkStats()
	if len(stats) != 3 {
		t.Errorf("nonzero links = %d, want 3", len(stats))
	}
}

// TestAdaptiveRoutingBalancesLinks: under transpose traffic the
// odd-even policy spreads load over more links and lowers the hottest
// link's traversal count relative to strict DoR.
func TestAdaptiveRoutingBalancesLinks(t *testing.T) {
	type result struct {
		maxLink   int64
		linksUsed int
	}
	run := func(policy RoutingPolicy) result {
		fm := fault.NewMap(geom.NewGrid(8, 8))
		s, err := NewSim(fm, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Policy = policy
		tag := uint32(0)
		for round := 0; round < 10; round++ {
			fm.Grid().All(func(src geom.Coord) {
				dst := geom.C(src.Y, src.X)
				if src == dst {
					return
				}
				tag++
				s.Inject(XY, src, dst, Request, tag, 0)
			})
			for range 2 {
				s.Step()
			}
		}
		if err := s.RunUntilDrained(60000); err != nil {
			t.Fatal(err)
		}
		max, mean := s.LinkSkew()
		if mean <= 0 {
			t.Fatal("no link traffic recorded")
		}
		return result{maxLink: max, linksUsed: len(s.LinkStats())}
	}
	dor := run(DoRPolicy{})
	oe := run(OddEvenPolicy{})
	if oe.maxLink >= dor.maxLink {
		t.Errorf("odd-even hottest link %d not below DoR %d", oe.maxLink, dor.maxLink)
	}
	if oe.linksUsed <= dor.linksUsed {
		t.Errorf("odd-even used %d links, DoR %d — adaptivity should spread", oe.linksUsed, dor.linksUsed)
	}
}

func TestWriteHeatmap(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 3), Request, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.WriteHeatmap(&buf, XY)
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Errorf("heatmap missing hottest marker:\n%s", out)
	}
	if strings.Count(out, "\n") != 5 { // header + 4 rows
		t.Errorf("heatmap shape wrong:\n%s", out)
	}
}
