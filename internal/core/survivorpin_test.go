package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The survivor pins record which screened candidates each two-tier
// explorer sends to cycle verification on its pinned space, together
// with the screen values and the model-error report. Frontier identity
// alone would not notice a changed survivor rule that happens to keep
// the same frontier.

// TestParetoSurvivorPin pins the Pareto explorer's survivor set on the
// CI differential space (DefaultParetoSpace).
func TestParetoSurvivorPin(t *testing.T) {
	run, err := NewDesign().ExploreParetoCtx(context.Background(), DefaultParetoSpace(), ParetoOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	// PerPoint lists the survivors in verification order; map each back
	// to its index in the enumeration-ordered screen.
	var surv []int
	for _, pe := range run.ModelError.PerPoint {
		for i, p := range run.Screened {
			if p.ArraySide == pe.ArraySide && p.EdgeVolts == pe.EdgeVolts && p.PillarsPerPad == pe.PillarsPerPad {
				surv = append(surv, i)
				break
			}
		}
	}
	want := []int{0, 1, 3, 7, 15, 22, 23}
	if !reflect.DeepEqual(surv, want) {
		t.Errorf("survivors %v, want %v", surv, want)
	}

	var b strings.Builder
	for i, p := range run.Screened {
		fmt.Fprintf(&b, "screen %2d side=%d edgeV=%.10g pillars=%d tops=%.10g powerW=%.10g bad=%.10g centerV=%.10g feasible=%v sat=%.10g latency=%.10g\n",
			i, p.ArraySide, p.EdgeVolts, p.PillarsPerPad, p.ThroughputTOPS, p.EdgePowerW, p.ExpectedBad, p.CenterVolt, p.Feasible, p.NoCSatRate, p.NoCLatency)
	}
	me := run.ModelError
	fmt.Fprintf(&b, "error points=%d centerV mean=%.10g max=%.10g sat mean=%.10g max=%.10g latency mean=%.10g max=%.10g rank centerV=%.10g latency=%.10g feasible=%d\n",
		me.Points, me.CenterVoltMeanPct, me.CenterVoltMaxPct, me.NoCSatMeanPct, me.NoCSatMaxPct,
		me.NoCLatencyMeanPct, me.NoCLatencyMaxPct, me.CenterVoltRankCorr, me.NoCLatencyRankCorr, me.FeasibilityMatches)
	for _, pe := range me.PerPoint {
		fmt.Fprintf(&b, "point side=%d edgeV=%.10g pillars=%d centerV=%.10g sat=%.10g latency=%.10g feasibleMatch=%v\n",
			pe.ArraySide, pe.EdgeVolts, pe.PillarsPerPad, pe.CenterVoltPct, pe.NoCSatPct, pe.NoCLatencyPct, pe.FeasibleMatch)
	}
	checkGolden(t, "pareto_survivors.golden", b.String())
}

// TestTopoSurvivorPin pins the topology explorer's survivor set on
// topoTestSpace.
func TestTopoSurvivorPin(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-accurate sweep")
	}
	run, err := ExploreTopologiesCtx(context.Background(), topoTestSpace(), TopoSweepOpts{TwoTier: true})
	if err != nil {
		t.Fatal(err)
	}
	// All lists the verified survivors in verification order.
	var surv []int
	for _, v := range run.All {
		for i, p := range run.Screened {
			if p.Topology == v.Topology && p.Faults == v.Faults && p.Trial == v.Trial {
				surv = append(surv, i)
				break
			}
		}
	}
	want := []int{0, 6, 9, 10, 11}
	if !reflect.DeepEqual(surv, want) {
		t.Errorf("survivors %v, want %v", surv, want)
	}

	var b strings.Builder
	for i, p := range run.Screened {
		fmt.Fprintf(&b, "screen %2d %s faults=%d trial=%d sat=%.10g latency=%.10g\n", i, p.Topology, p.Faults, p.Trial, p.SatRate, p.Latency)
	}
	fmt.Fprintf(&b, "rank sat=%.10g latency=%.10g\n", run.SatRankCorr, run.LatencyRankCorr)
	for _, te := range run.PerTopology {
		fmt.Fprintf(&b, "error %s points=%d sat mean=%.10g max=%.10g latency mean=%.10g max=%.10g\n",
			te.Topology, te.Points, te.SatMeanPct, te.SatMaxPct, te.LatencyMeanPct, te.LatencyMaxPct)
	}
	checkGolden(t, "topo_survivors.golden", b.String())
}

// checkGolden compares got with the pinned file under testdata/.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the pinned output:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
