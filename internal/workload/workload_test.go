package workload

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"waferscale/internal/geom"
	"waferscale/internal/inject"
	"waferscale/internal/noc"
	"waferscale/internal/sim"
)

// runVerified executes g on a fresh machine and requires completion and
// bit-identity with the host reference for every operator.
func runVerified(t *testing.T, side int, topology string, g *Graph, opt Options) *WorkloadReport {
	t.Helper()
	m, err := BuildMachine(side, topology)
	if err != nil {
		t.Fatal(err)
	}
	outputs, rep, err := Run(m, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run failed at op %q:\n%s", rep.FailedOp, rep)
	}
	want, err := Reference(g)
	if err != nil {
		t.Fatal(err)
	}
	if bad := CompareOutputs(outputs, want); len(bad) != 0 {
		t.Fatalf("ops diverged from reference: %v", bad)
	}
	return rep
}

// TestOperatorsMatchReferenceAllTopologies is the core differential
// contract: the built-in graph (it contains every operator kind) must
// be bit-identical to the host reference executors on every topology.
func TestOperatorsMatchReferenceAllTopologies(t *testing.T) {
	g := TransformerBlock(0, 0, 0)
	for _, topo := range noc.TopologyNames() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			rep := runVerified(t, 4, topo, g, Options{})
			if rep.Topology != topo {
				t.Errorf("report topology = %q, want %q", rep.Topology, topo)
			}
			if rep.TotalCycles <= 0 || rep.Instructions <= 0 || rep.RemoteOps <= 0 {
				t.Errorf("implausible totals: %+v", rep)
			}
			if rep.CriticalPathCycles <= 0 || rep.CriticalPathCycles > rep.TotalCycles {
				t.Errorf("critical path %d outside (0, %d]", rep.CriticalPathCycles, rep.TotalCycles)
			}
			if len(rep.CriticalPath) == 0 {
				t.Error("empty critical path")
			}
		})
	}
}

// TestPerOperatorMetrics pins that every compute operator gets plausible
// utilization/bandwidth/backpressure numbers.
func TestPerOperatorMetrics(t *testing.T) {
	rep := runVerified(t, 4, "", TransformerBlock(0, 0, 0), Options{})
	for _, om := range rep.Ops {
		if om.Kind == KindInput {
			if om.Cycles != 0 {
				t.Errorf("input %q charged %d cycles", om.ID, om.Cycles)
			}
			continue
		}
		if om.Cycles <= 0 || om.Workers <= 0 || om.Instructions <= 0 {
			t.Errorf("op %q: empty metrics %+v", om.ID, om)
		}
		if om.Utilization <= 0 || om.Utilization > 1 {
			t.Errorf("op %q: utilization %v outside (0,1]", om.ID, om.Utilization)
		}
		if om.Backpressure < 0 {
			t.Errorf("op %q: negative backpressure", om.ID)
		}
		if om.RemoteOps > 0 && om.BandwidthBPC <= 0 {
			t.Errorf("op %q: remote ops but no bandwidth", om.ID)
		}
	}
}

// TestPlacementPolicies: every policy yields a verified run and a
// populated working-set map; policies actually place differently.
func TestPlacementPolicies(t *testing.T) {
	g := TransformerBlock(0, 0, 0)
	for _, policy := range PlacementNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			rep := runVerified(t, 4, "", g, Options{Placement: policy})
			if rep.Placement != policy {
				t.Errorf("report placement = %q", rep.Placement)
			}
		})
	}
	m, err := BuildMachine(4, "")
	if err != nil {
		t.Fatal(err)
	}
	row, err := Place(m, g, PlacementRowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := Place(m, g, PlacementBlocked)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.WorkingSet) == 0 || len(blk.WorkingSet) == 0 {
		t.Fatal("empty working sets")
	}
	if reflect.DeepEqual(row.Tensors, blk.Tensors) {
		t.Error("rowmajor and blocked placed every tensor identically")
	}
	if _, err := Place(m, g, "nosuch"); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestChaosMidOperator kills a tile while the graph is mid-flight and
// requires the degradation to be attributed to a specific operator.
func TestChaosMidOperator(t *testing.T) {
	g := TransformerBlock(0, 0, 0)
	m, err := BuildMachine(4, "")
	if err != nil {
		t.Fatal(err)
	}
	s := inject.NewSchedule()
	s.KillTileAt(400, geom.C(3, 3))
	if err := m.AttachSchedule(s); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Run(m, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degradation.KilledTiles) != 1 {
		t.Fatalf("kill did not land: %+v", rep.Degradation)
	}
	if rep.Degradation.Topology != "mesh" {
		t.Errorf("degradation report topology = %q", rep.Degradation.Topology)
	}
	killed := 0
	for _, om := range rep.Ops {
		killed += om.TilesKilled
	}
	if killed != 1 {
		t.Errorf("kill attributed to %d ops' windows, want exactly 1", killed)
	}
}

// TestChaosSurvivalCurve runs a tiny Monte-Carlo sweep: the fault-free
// point must complete and verify at 100%.
func TestChaosSurvivalCurve(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Trials = 3
	cfg.Kills = []int{0, 2}
	points, err := RunChaos(cfg, TransformerBlock(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].CompletedRate() != 1 || points[0].VerifiedRate() != 1 {
		t.Errorf("fault-free point not clean: %+v", points[0])
	}
	if points[1].MeanLostKiB == 0 {
		t.Errorf("2-kill point lost no memory: %+v", points[1])
	}
	if sim.FormatChaos(points) == "" {
		t.Error("empty chaos table")
	}
}

// TestBudgetExpiryEndsRun is the regression for operators launched
// after an earlier one ran out of budget: the expired operator's cores
// keep running, so no later operator can quiesce and each burned its
// own full budget. The bench chaos sweep at seed 60 draws a kill of
// tile (1,2) at cycle 3344 that wedges the "disp" operator; the run
// must end there.
func TestBudgetExpiryEndsRun(t *testing.T) {
	g := TransformerBlock(0, 0, 0)
	m, err := BuildMachine(4, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AttachSchedule(inject.NewSchedule().KillTileAt(3344, geom.C(1, 2))); err != nil {
		t.Fatal(err)
	}
	budget := Options{}.withDefaults().OpBudget
	_, rep, err := Run(m, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed || len(rep.Ops) == 0 {
		t.Fatalf("kill did not fail the run: %+v", rep)
	}
	last := rep.Ops[len(rep.Ops)-1]
	if rep.FailedOp != last.ID || !strings.Contains(last.Error, "budget") {
		t.Fatalf("run did not end at the budget-expired op: failed %q, last op %+v", rep.FailedOp, last)
	}
	if len(rep.Ops) == len(g.Ops) || rep.TotalCycles >= 2*budget {
		t.Fatalf("ops launched after the expiry: %d of %d ops ran, %d cycles", len(rep.Ops), len(g.Ops), rep.TotalCycles)
	}

	// The same trial inside the bench chaos configuration: one expired
	// trial of two costs about one budget, not one per remaining op.
	cfg := DefaultChaosConfig()
	cfg.Kills, cfg.Trials, cfg.TrialWorkers, cfg.Seed = []int{1}, 2, 2, 60
	points, err := RunChaos(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if p := points[0]; p.Completed != 1 || p.MeanCycles >= float64(budget) {
		t.Fatalf("seed 60 kills=1: %d of 2 trials completed, mean %.0f cycles, want 1 and < %d", p.Completed, p.MeanCycles, budget)
	}
}

// TestGraphValidation exercises the IR checks.
func TestGraphValidation(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
	}{
		{"cycle", Graph{Name: "c", Ops: []Op{
			{ID: "a", Kind: KindElementwise, Fn: "relu", Inputs: []string{"b"}},
			{ID: "b", Kind: KindElementwise, Fn: "relu", Inputs: []string{"a"}},
		}}},
		{"dup id", Graph{Name: "d", Ops: []Op{
			{ID: "a", Kind: KindInput, Rows: 1, Cols: 1},
			{ID: "a", Kind: KindInput, Rows: 1, Cols: 1},
		}}},
		{"missing input", Graph{Name: "m", Ops: []Op{
			{ID: "a", Kind: KindElementwise, Fn: "relu", Inputs: []string{"ghost"}},
		}}},
		{"gemm shape", Graph{Name: "g", Ops: []Op{
			{ID: "a", Kind: KindInput, Rows: 2, Cols: 3},
			{ID: "b", Kind: KindInput, Rows: 4, Cols: 2},
			{ID: "c", Kind: KindGEMM, Inputs: []string{"a", "b"}},
		}}},
		{"bad kind", Graph{Name: "k", Ops: []Op{{ID: "a", Kind: "zap"}}}},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s: invalid graph accepted", tc.name)
		}
	}
	if err := TransformerBlock(0, 0, 0).Validate(); err != nil {
		t.Errorf("builtin graph invalid: %v", err)
	}
}

// TestGraphJSONRoundTrip: marshal -> parse -> identical graph.
func TestGraphJSONRoundTrip(t *testing.T) {
	g := TransformerBlock(6, 4, 2)
	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Errorf("round trip changed the graph:\n%+v\n%+v", g, back)
	}
	if _, err := ParseGraph([]byte(`{"ops":[]}`)); err == nil {
		t.Error("nameless graph accepted")
	}
}

// TestBuiltinLookup covers the registry.
func TestBuiltinLookup(t *testing.T) {
	if _, err := Builtin("transformer", 0, 0, 0); err != nil {
		t.Error(err)
	}
	if _, err := Builtin("nosuch", 0, 0, 0); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestExampleGraphFile pins the checked-in examples/ graph: it must
// parse, match the built-in it was generated from, and re-marshal to
// the exact bytes on disk (so regenerating it is always a no-op).
func TestExampleGraphFile(t *testing.T) {
	data, err := os.ReadFile("../../examples/transformer_block.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := TransformerBlock(0, 0, 0); !reflect.DeepEqual(g, want) {
		t.Errorf("example graph drifted from TransformerBlock defaults:\n%+v\n%+v", g, want)
	}
	out, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(append(out, '\n')) != string(data) {
		t.Error("example file is not in canonical MarshalGraph form")
	}
}
