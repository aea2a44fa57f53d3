package serve

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"waferscale/internal/core"
	"waferscale/internal/noc"
)

// The labeling contract from the two-tier DSE work: approximate runs
// are a different spec, so they must hash to different cache keys than
// their exact counterparts — a cached analytical curve can never be
// served for a cycle-accurate request or vice versa.
func TestCacheKeySeparatesModels(t *testing.T) {
	cases := [][2]string{
		{
			`{"kind":"throughput"}`,
			`{"kind":"throughput","throughput":{"model":"analytical"}}`,
		},
		{
			`{"kind":"dse"}`,
			`{"kind":"dse","dse":{"model":"analytical"}}`,
		},
		{
			`{"kind":"pareto"}`,
			`{"kind":"pareto","pareto":{"mode":"screen"}}`,
		},
		{
			`{"kind":"pareto"}`,
			`{"kind":"pareto","pareto":{"mode":"twotier"}}`,
		},
		{
			`{"kind":"pareto","pareto":{"mode":"screen"}}`,
			`{"kind":"pareto","pareto":{"mode":"twotier"}}`,
		},
		{
			// Two-tier tuning knobs are part of the two-tier key.
			`{"kind":"pareto","pareto":{"mode":"twotier"}}`,
			`{"kind":"pareto","pareto":{"mode":"twotier","topK":5}}`,
		},
	}
	for _, c := range cases {
		a, b := specKeyFromJSON(t, c[0]), specKeyFromJSON(t, c[1])
		if a == b {
			t.Errorf("specs %s and %s collided on key %s", c[0], c[1], a)
		}
	}
}

// Omitting the model must hash the same as spelling out the exact
// default — clients that never heard of the analytical backend keep
// hitting their old cache entries.
func TestCacheKeyModelCanonicalForm(t *testing.T) {
	if a, b := specKeyFromJSON(t, `{"kind":"throughput"}`),
		specKeyFromJSON(t, `{"kind":"throughput","throughput":{"model":"cycle"}}`); a != b {
		t.Errorf("throughput: implicit and explicit cycle model diverged: %s vs %s", a, b)
	}
	if a, b := specKeyFromJSON(t, `{"kind":"dse","dse":{"model":" Analytical "}}`),
		specKeyFromJSON(t, `{"kind":"dse","dse":{"model":"analytical"}}`); a != b {
		t.Errorf("dse: model spelling fragmented the key: %s vs %s", a, b)
	}
	if a, b := specKeyFromJSON(t, `{"kind":"pareto"}`),
		specKeyFromJSON(t, `{"kind":"pareto","pareto":{"mode":"exact"}}`); a != b {
		t.Errorf("pareto: implicit and explicit exact mode diverged: %s vs %s", a, b)
	}
	// Two-tier defaults fill like every other default.
	if a, b := specKeyFromJSON(t, `{"kind":"pareto","pareto":{"mode":"twotier"}}`),
		specKeyFromJSON(t, `{"kind":"pareto","pareto":{"mode":"twotier","topK":2,"bandPct":5}}`); a != b {
		t.Errorf("pareto: two-tier default filling diverged: %s vs %s", a, b)
	}
}

// TopK/BandPct only exist in two-tier mode; in exact or screen mode
// they are normalized away so stray values cannot fragment the key.
func TestCacheKeyTwoTierKnobsZeroedOutsideTwoTier(t *testing.T) {
	if a, b := specKeyFromJSON(t, `{"kind":"pareto"}`),
		specKeyFromJSON(t, `{"kind":"pareto","pareto":{"topK":7,"bandPct":3.5}}`); a != b {
		t.Errorf("exact pareto: stray two-tier knobs fragmented the key: %s vs %s", a, b)
	}
	if a, b := specKeyFromJSON(t, `{"kind":"pareto","pareto":{"mode":"screen"}}`),
		specKeyFromJSON(t, `{"kind":"pareto","pareto":{"mode":"screen","topK":7}}`); a != b {
		t.Errorf("screen pareto: stray topK fragmented the key: %s vs %s", a, b)
	}
}

func TestNormalizeRejectsBadModelKnobs(t *testing.T) {
	bad := []string{
		`{"kind":"throughput","throughput":{"model":"magic"}}`,
		`{"kind":"dse","dse":{"model":"quantum"}}`,
		`{"kind":"pareto","pareto":{"mode":"threetier"}}`,
		`{"kind":"pareto","pareto":{"mode":"twotier","topK":65}}`,
		`{"kind":"pareto","pareto":{"mode":"twotier","bandPct":51}}`,
		`{"kind":"pareto","pareto":{"mode":"twotier","bandPct":-1}}`,
	}
	for _, body := range bad {
		sp := mustDecodeSpec(t, body)
		if err := sp.Normalize(); err == nil {
			t.Errorf("spec %s normalized without error", body)
		}
	}
}

func mustDecodeSpec(t *testing.T, body string) *Spec {
	t.Helper()
	var sp Spec
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	return &sp
}

// eventLog collects emitted progress events; emit may be called from
// worker goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) emit(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) stages() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]int{}
	for _, ev := range l.events {
		m[ev.Stage]++
	}
	return m
}

// An analytical throughput job runs end to end, labels its result, and
// returns one point per requested rate, streaming progress after each.
func TestRunThroughputAnalytical(t *testing.T) {
	sp := mustDecodeSpec(t, `{"kind":"throughput","throughput":{"side":8,"model":"analytical","rates":[0.05,0.2,0.5]}}`)
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	var log eventLog
	res, err := Run(context.Background(), sp, 2, log.emit)
	if err != nil {
		t.Fatal(err)
	}
	if n := log.stages()["rates"]; n != 3 {
		t.Fatalf("got %d 'rates' progress events, want one per rate", n)
	}
	tr := res.(*ThroughputResult)
	if tr.Model != noc.ModelNameAnalytical {
		t.Fatalf("result model %q, want %q", tr.Model, noc.ModelNameAnalytical)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(tr.Points))
	}
	for _, p := range tr.Points {
		if p.DeliveredRate <= 0 || p.AvgLatency <= 0 {
			t.Fatalf("degenerate analytical point %+v", p)
		}
	}
}

// A dse job streams one progress event per completed side (the serve
// face of the SweepArraySizeCtx progress hook) and labels its result.
func TestRunDSEStreamsProgress(t *testing.T) {
	sp := mustDecodeSpec(t, `{"kind":"dse","dse":{"sides":[8,12],"model":"analytical"}}`)
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	var log eventLog
	res, err := Run(context.Background(), sp, 2, log.emit)
	if err != nil {
		t.Fatal(err)
	}
	dr := res.(*DSEResult)
	if dr.Model != noc.ModelNameAnalytical {
		t.Fatalf("result model %q, want %q", dr.Model, noc.ModelNameAnalytical)
	}
	if len(dr.ArrayPoints) != 2 {
		t.Fatalf("got %d points, want 2", len(dr.ArrayPoints))
	}
	for _, p := range dr.ArrayPoints {
		if p.Model != noc.ModelNameAnalytical {
			t.Fatalf("point model %q, want analytical", p.Model)
		}
	}
	if n := log.stages()["points"]; n < 3 { // 0/2, 1/2, 2/2
		t.Fatalf("got %d 'points' progress events, want >= 3", n)
	}
}

// A two-tier pareto job returns the verified (cycle-labeled) frontier,
// the analytical screen, survivor accounting and an error report, and
// streams screen/verify stage progress.
func TestRunParetoTwoTier(t *testing.T) {
	body := `{"kind":"pareto","pareto":{"sides":[8,12],"edgeV":[2.0,2.5],"pillars":[1],"mode":"twotier"}}`
	sp := mustDecodeSpec(t, body)
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	var log eventLog
	res, err := Run(context.Background(), sp, 2, log.emit)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.(*ParetoResult)
	if pr.Mode != "twotier" || pr.Model != noc.ModelNameCycle {
		t.Fatalf("labels mode=%q model=%q, want twotier/cycle", pr.Mode, pr.Model)
	}
	if len(pr.Screened) != 4 {
		t.Fatalf("screened %d points, want the full 4-point grid", len(pr.Screened))
	}
	for _, p := range pr.Screened {
		if p.Model != noc.ModelNameAnalytical {
			t.Fatalf("screened point model %q, want analytical", p.Model)
		}
	}
	for _, p := range pr.Frontier {
		if p.Model != noc.ModelNameCycle {
			t.Fatalf("frontier point model %q, want cycle", p.Model)
		}
	}
	if pr.Survivors+pr.ScreenedOut != 4 {
		t.Fatalf("survivors %d + screenedOut %d != 4", pr.Survivors, pr.ScreenedOut)
	}
	if pr.ModelError == nil || pr.ModelError.Points != pr.Survivors {
		t.Fatalf("error report missing or wrong size: %+v", pr.ModelError)
	}
	st := log.stages()
	if st["screen"] == 0 || st["verify"] == 0 {
		t.Fatalf("missing stage progress, got %v", st)
	}

	// The verified two-tier frontier must equal the exact frontier on
	// the same space — the differential contract, here at the serve
	// layer where cache keys and labels live.
	exact := mustDecodeSpec(t, `{"kind":"pareto","pareto":{"sides":[8,12],"edgeV":[2.0,2.5],"pillars":[1]}}`)
	if err := exact.Normalize(); err != nil {
		t.Fatal(err)
	}
	eres, err := Run(context.Background(), exact, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	epr := eres.(*ParetoResult)
	if len(epr.Frontier) != len(pr.Frontier) {
		t.Fatalf("two-tier frontier has %d points, exact %d", len(pr.Frontier), len(epr.Frontier))
	}
	for i := range epr.Frontier {
		if epr.Frontier[i] != pr.Frontier[i] {
			t.Fatalf("frontier point %d differs: twotier %+v vs exact %+v", i, pr.Frontier[i], epr.Frontier[i])
		}
	}
	if core.DefaultTopK < 1 {
		t.Fatal("unreachable; keeps core import honest")
	}
}
