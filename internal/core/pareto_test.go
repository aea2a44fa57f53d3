package core

import (
	"context"
	"testing"
)

func TestExplorePareto(t *testing.T) {
	d := NewDesign()
	run, err := d.ExploreParetoCtx(context.Background(), DefaultParetoSpace(), ParetoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	all, frontier := run.All, run.Frontier
	if len(all) == 0 || len(frontier) == 0 {
		t.Fatalf("all=%d frontier=%d", len(all), len(frontier))
	}
	if len(frontier) > len(all) {
		t.Fatal("frontier larger than the feasible set")
	}
	// Frontier members must be mutually non-dominated.
	for i, a := range frontier {
		for j, b := range frontier {
			if i != j && dominates(a, b) {
				t.Errorf("frontier point %+v dominates %+v", a, b)
			}
		}
	}
	// Every non-frontier point must be dominated by some frontier point.
	inFrontier := func(p DesignPoint) bool {
		for _, f := range frontier {
			if f == p {
				return true
			}
		}
		return false
	}
	for _, p := range all {
		if inFrontier(p) {
			continue
		}
		dominated := false
		for _, f := range frontier {
			if dominates(f, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier point %+v not dominated", p)
		}
	}
	// The prototype's neighborhood: a dual-pillar point at side 32
	// should be feasible and near the frontier (single-pillar points
	// with the same geometry are dominated on yield).
	foundProto := false
	for _, p := range frontier {
		if p.ArraySide == 32 && p.PillarsPerPad == 2 {
			foundProto = true
		}
		if p.PillarsPerPad == 1 {
			// Single pillar can only survive on the frontier if it wins
			// on another axis, which it cannot: same power/throughput,
			// worse yield.
			t.Errorf("single-pillar point on the frontier: %+v", p)
		}
	}
	if !foundProto {
		t.Error("prototype-like 32x32 dual-pillar point missing from the frontier")
	}
}

func TestParetoInfeasibleExcluded(t *testing.T) {
	d := NewDesign()
	// Huge array at low edge voltage cannot regulate.
	run, err := d.ExploreParetoCtx(context.Background(), ParetoSpace{Sides: []int{48}, EdgeV: []float64{2.0}, Pillars: []int{2}}, ParetoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.All) != 0 {
		t.Errorf("infeasible point admitted: %+v", run.All)
	}
}

func TestDominates(t *testing.T) {
	a := DesignPoint{ThroughputTOPS: 4, EdgePowerW: 700, ExpectedBad: 0.1}
	b := DesignPoint{ThroughputTOPS: 4, EdgePowerW: 800, ExpectedBad: 0.1}
	if !dominates(a, b) || dominates(b, a) {
		t.Error("domination on power wrong")
	}
	if dominates(a, a) {
		t.Error("a point must not dominate itself")
	}
}
