package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"waferscale/internal/noc"
	"waferscale/internal/workload"
)

// The workload kind's canonical form mirrors the topology convention:
// the default placement (rowmajor) collapses to the absent field, the
// default graph/sizes fill in explicitly, so every spelling of the
// default question shares one cache key.
func TestWorkloadCacheKeyCanonicalForm(t *testing.T) {
	cases := [][2]string{
		{
			`{"kind":"workload"}`,
			`{"kind":"workload","workload":{"graph":"transformer"}}`,
		},
		{
			`{"kind":"workload"}`,
			`{"kind":"workload","workload":{"placement":"rowmajor"}}`,
		},
		{
			`{"kind":"workload"}`,
			`{"kind":"workload","workload":{"topology":"mesh","placement":" RowMajor "}}`,
		},
		{
			`{"kind":"workload"}`,
			`{"kind":"workload","workload":{"graph":" Transformer ","tokens":8,"dim":8,"experts":2,"side":8}}`,
		},
		{
			`{"kind":"workload","workload":{"placement":"blocked"}}`,
			`{"kind":"workload","workload":{"placement":" Blocked "}}`,
		},
	}
	for _, c := range cases {
		a, b := specKeyFromJSON(t, c[0]), specKeyFromJSON(t, c[1])
		if a != b {
			t.Errorf("specs %s and %s should share a key, got %s vs %s", c[0], c[1], a, b)
		}
	}
}

// No two (topology, placement) combinations may alias: a cached mesh/
// rowmajor report can never answer an express/bandwidth request.
func TestWorkloadCacheKeyNoAlias(t *testing.T) {
	keys := map[string]string{}
	for _, topo := range noc.TopologyNames() {
		for _, pl := range workload.PlacementNames() {
			spec := fmt.Sprintf(`{"kind":"workload","workload":{"topology":%q,"placement":%q}}`, topo, pl)
			key := specKeyFromJSON(t, spec)
			if prev, dup := keys[key]; dup {
				t.Errorf("combos %s and %s/%s share cache key %s", prev, topo, pl, key)
			}
			keys[key] = topo + "/" + pl
		}
	}
	// Size knobs are part of the question too.
	if specKeyFromJSON(t, `{"kind":"workload"}`) ==
		specKeyFromJSON(t, `{"kind":"workload","workload":{"tokens":6}}`) {
		t.Error("token count did not change the cache key")
	}
}

// TestWorkloadNormalizeRejects pins the validation errors.
func TestWorkloadNormalizeRejects(t *testing.T) {
	bad := []string{
		`{"kind":"workload","workload":{"graph":"nosuch"}}`,
		`{"kind":"workload","workload":{"placement":"nosuch"}}`,
		`{"kind":"workload","workload":{"topology":"torus"}}`,
		`{"kind":"workload","workload":{"topology":"vertical","side":7}}`,
		`{"kind":"workload","workload":{"side":1}}`,
		`{"kind":"workload","workload":{"tokens":1000}}`,
	}
	for _, body := range bad {
		var sp Spec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
		}
		if err := sp.Normalize(); err == nil {
			t.Errorf("spec %s should be rejected", body)
		}
	}
}

// TestWorkloadRunVerifies runs the workload kind end to end through
// serve.Run: the report must complete and the differential check
// against the host reference must pass.
func TestWorkloadRunVerifies(t *testing.T) {
	var sp Spec
	body := `{"kind":"workload","workload":{"side":4,"topology":"cmesh","placement":"blocked"}}`
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), &sp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wr, ok := res.(*WorkloadResult)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if !wr.Report.Completed {
		t.Fatalf("workload failed at op %q", wr.Report.FailedOp)
	}
	if !wr.Verified {
		t.Fatalf("outputs diverged from reference: %v", wr.Mismatched)
	}
	if wr.Report.Topology != "cmesh" || wr.Topology != "cmesh" || wr.Placement != "blocked" {
		t.Errorf("result labels wrong: report=%q topo=%q placement=%q",
			wr.Report.Topology, wr.Topology, wr.Placement)
	}
	if wr.Report.TotalCycles <= 0 || wr.Report.RemoteOps <= 0 {
		t.Errorf("implausible report totals: %+v", wr.Report)
	}
}

// TestWorkloadJobStreamsCycles: a workload job reports the machine's
// cycle count while it runs, not only once it has finished, so the
// stall watchdog can tell a long job from a stuck one. The longest
// silence between progress events must be a small fraction of the
// job, and a server whose stall timeout lies between the two runs the
// job to completion on its first attempt.
func TestWorkloadJobStreamsCycles(t *testing.T) {
	const body = `{"kind":"workload","workload":{"tokens":32,"dim":32,"side":4}}`
	var sp Spec
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	last, silence := start, time.Duration(0)
	var cycles []int64
	_, err := Run(context.Background(), &sp, 1, func(ev Event) {
		now := time.Now()
		silence = max(silence, now.Sub(last))
		last = now
		if ev.Stage == "cycles" {
			cycles = append(cycles, ev.Cycles)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	job := time.Since(start)
	if len(cycles) < 2 || !slices.IsSorted(cycles) || cycles[0] <= 0 {
		t.Fatalf("cycle events %v: want a rising series of at least 2", cycles)
	}
	if job < 8*silence {
		t.Fatalf("job took %v with a silence of %v between progress events: want under 1/8 of the job", job, silence)
	}
	requireNoStalls(t, body, job, silence)
}

// requireNoStalls runs body on a server whose stall timeout is the
// geometric mean of a job's length and its longest progress silence,
// and requires the job to finish on its first attempt.
func requireNoStalls(t *testing.T, body string, job, silence time.Duration) {
	t.Helper()
	stall := time.Duration(math.Sqrt(float64(job) * float64(silence)))
	h := &testHarness{}
	h.srv = New(Config{Slots: 1, StallTimeout: stall, StallPoll: stall / 4, StallRetries: -1})
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(func() { h.ts.Close(); h.srv.Close() })
	_, j, _ := h.post(t, body)
	h.waitState(t, j.ID, "done")
	if st := h.stats(t); st.Stalls != 0 || st.StallRequeues != 0 {
		t.Fatalf("stalls=%d requeues=%d with a %v stall timeout: want 0/0", st.Stalls, st.StallRequeues, stall)
	}
}
