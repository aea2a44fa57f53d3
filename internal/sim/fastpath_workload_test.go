package sim_test

import (
	"reflect"
	"testing"

	"waferscale/internal/geom"
	"waferscale/internal/sim"
	"waferscale/internal/workload"
)

// TestMachineFastPathDifferentialTransformer pins the fast path to the
// full scan on an operator graph: the built-in transformer block on an
// 8×8 mesh launches 17 operators on a few tiles each, so most tiles sit
// quiescent most of the run. Outputs, the per-operator report, the
// cycle count, NoC statistics and every core's counters must match.
func TestMachineFastPathDifferentialTransformer(t *testing.T) {
	g := workload.TransformerBlock(0, 0, 0)
	run := func(fullScan bool) (map[string][]int32, *workload.WorkloadReport, *sim.Machine) {
		m, err := workload.BuildMachine(8, "mesh")
		if err != nil {
			t.Fatal(err)
		}
		sim.SetFullScan(m, fullScan)
		out, rep, err := workload.Run(m, g, workload.Options{Placement: "bandwidth"})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatalf("fullScan=%v: graph failed at op %q", fullScan, rep.FailedOp)
		}
		return out, rep, m
	}
	fastOut, fastRep, fast := run(false)
	refOut, refRep, ref := run(true)

	if !reflect.DeepEqual(fastOut, refOut) {
		t.Error("operator outputs diverge between the fast path and the full scan")
	}
	if !reflect.DeepEqual(fastRep, refRep) {
		t.Errorf("reports diverge:\nfast %s\nref  %s", fastRep, refRep)
	}
	if fast.Cycle() != ref.Cycle() {
		t.Errorf("cycles: fast %d, ref %d", fast.Cycle(), ref.Cycle())
	}
	if fs, rs := fast.Net().Stats(), ref.Net().Stats(); fs != rs {
		t.Errorf("NoC stats: fast %+v, ref %+v", fs, rs)
	}
	fast.Cfg.Grid().All(func(c geom.Coord) {
		ft, rt := fast.Tile(c), ref.Tile(c)
		if (ft == nil) != (rt == nil) {
			t.Fatalf("tile %v: presence diverges", c)
		}
		if rt == nil {
			return
		}
		for i, rc := range rt.Cores {
			fc := ft.Cores[i]
			if fc.Instret != rc.Instret || fc.StallFixed != rc.StallFixed || fc.StallRemote != rc.StallRemote {
				t.Errorf("tile %v core %d: instret %d/%d stallFixed %d/%d stallRemote %d/%d (fast/ref)",
					c, i, fc.Instret, rc.Instret, fc.StallFixed, rc.StallFixed, fc.StallRemote, rc.StallRemote)
			}
		}
	})
}
