package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testHarness wires a Server behind an httptest listener with a
// controllable run function: each job announces itself on started and
// then blocks until release is closed (or its context is canceled).
type testHarness struct {
	srv     *Server
	ts      *httptest.Server
	started chan string
	release chan struct{}
}

// newHarness builds a harness. If block is false the runFn completes
// immediately (still announcing on started).
func newHarness(t *testing.T, cfg Config, block bool) *testHarness {
	t.Helper()
	h := &testHarness{
		started: make(chan string, 32),
		release: make(chan struct{}),
	}
	h.srv = New(cfg)
	h.srv.runFn = func(ctx context.Context, sp *Spec, workers int, emit func(Event)) (any, error) {
		h.started <- sp.Kind
		if block {
			select {
			case <-h.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		emit(Event{Stage: "test", Done: 1, Total: 1})
		return map[string]any{"kind": sp.Kind, "workers": workers}, nil
	}
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(func() {
		h.ts.Close()
		h.srv.Close()
	})
	return h
}

type wireJob struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Cached  bool            `json:"cached"`
	Deduped bool            `json:"deduped"`
	Joins   int64           `json:"joins"`
	Error   string          `json:"error"`
	Result  json.RawMessage `json:"result"`
}

func (h *testHarness) post(t *testing.T, body string) (int, wireJob, http.Header) {
	t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var j wireJob
	json.NewDecoder(resp.Body).Decode(&j)
	return resp.StatusCode, j, resp.Header
}

func (h *testHarness) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func (h *testHarness) del(t *testing.T, path string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// waitState polls a job until it reaches want (or fails the test).
func (h *testHarness) waitState(t *testing.T, id, want string) wireJob {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := h.get(t, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: HTTP %d", id, code)
		}
		var j wireJob
		json.Unmarshal(body, &j)
		if j.State == want {
			return j
		}
		if j.State == "failed" && want != "failed" {
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return wireJob{}
}

func (h *testHarness) stats(t *testing.T) Stats {
	t.Helper()
	_, body := h.get(t, "/v1/stats")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st
}

func (h *testHarness) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case kind := <-h.started:
		return kind
	case <-time.After(10 * time.Second):
		t.Fatal("no job started")
		return ""
	}
}

// TestComputeResultAndCacheHit drives the real Run path: a small droop
// solve is computed once; the identical question — spelled with a
// different JSON field order — is answered from the cache without a
// second computation.
func TestComputeResultAndCacheHit(t *testing.T) {
	h := &testHarness{}
	h.srv = New(Config{Slots: 1})
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(func() { h.ts.Close(); h.srv.Close() })

	code, j, _ := h.post(t, `{"kind":"droop","droop":{"side":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d", code)
	}
	h.waitState(t, j.ID, "done")
	code, body := h.get(t, "/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	var res DroopResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if res.MinVolt <= 0 || res.MinVolt >= 2.5 {
		t.Fatalf("implausible min volt %v", res.MinVolt)
	}

	code, j2, _ := h.post(t, `{"droop":{"side":4},"kind":"droop"}`)
	if code != http.StatusOK {
		t.Fatalf("replay POST: HTTP %d", code)
	}
	if !j2.Cached || j2.State != "done" {
		t.Fatalf("replay not served from cache: %+v", j2)
	}
	st := h.stats(t)
	if st.Executed != 1 {
		t.Fatalf("executed=%d want 1 (cache hit must not recompute)", st.Executed)
	}
	if st.Cache.Hits != 1 {
		t.Fatalf("cache hits=%d want 1", st.Cache.Hits)
	}
}

// TestSingleFlightDedup: two identical submissions while the first is
// still in flight must share one job — one computation, one ID.
func TestSingleFlightDedup(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, true)

	// Fill the only slot so the next submissions stay queued.
	_, filler, _ := h.post(t, `{"kind":"dse"}`)
	h.waitStarted(t)

	code, b1, _ := h.post(t, `{"kind":"droop"}`)
	if code != http.StatusAccepted || b1.State != "queued" {
		t.Fatalf("first droop POST: HTTP %d %+v", code, b1)
	}
	code, b2, _ := h.post(t, `{"kind":"droop"}`)
	if code != http.StatusOK || !b2.Deduped {
		t.Fatalf("identical in-flight POST not deduped: HTTP %d %+v", code, b2)
	}
	if b2.ID != b1.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", b2.ID, b1.ID)
	}
	if st := h.stats(t); st.InflightJoins != 1 {
		t.Fatalf("joins=%d want 1", st.InflightJoins)
	}

	close(h.release)
	h.waitState(t, filler.ID, "done")
	h.waitState(t, b1.ID, "done")
	if st := h.stats(t); st.Executed != 2 {
		t.Fatalf("executed=%d want 2 (dedup must not recompute)", st.Executed)
	}
}

// TestAdmissionControl: a saturated queue answers 429 with Retry-After
// instead of buffering unboundedly.
func TestAdmissionControl(t *testing.T) {
	h := newHarness(t, Config{Slots: 1, QueueDepth: 1}, true)

	h.post(t, `{"kind":"dse"}`)
	h.waitStarted(t) // slot busy
	code, _, _ := h.post(t, `{"kind":"droop"}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued POST: HTTP %d", code)
	}
	code, _, hdr := h.post(t, `{"kind":"nocmc"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: HTTP %d want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := h.stats(t); st.Rejected != 1 {
		t.Fatalf("rejected=%d want 1", st.Rejected)
	}
	close(h.release)
}

// TestCancelRunningFreesSlot: canceling the running job must release
// its worker and CPU grant so the queued job starts.
func TestCancelRunningFreesSlot(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, true)

	_, a, _ := h.post(t, `{"kind":"dse"}`)
	h.waitStarted(t)
	_, b, _ := h.post(t, `{"kind":"droop"}`)
	if b.State != "queued" {
		t.Fatalf("second job not queued: %+v", b)
	}

	code, _ := h.del(t, "/v1/jobs/"+a.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	h.waitState(t, a.ID, "canceled")
	if kind := h.waitStarted(t); kind != "droop" {
		t.Fatalf("after cancel, started %q want droop", kind)
	}
	close(h.release)
	h.waitState(t, b.ID, "done")
	st := h.stats(t)
	if st.BudgetFree != st.BudgetTotal {
		t.Fatalf("budget leak: free=%d total=%d", st.BudgetFree, st.BudgetTotal)
	}
}

// TestCancelQueuedJob: canceling a queued job removes it before it ever
// runs.
func TestCancelQueuedJob(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, true)
	h.post(t, `{"kind":"dse"}`)
	h.waitStarted(t)
	_, q, _ := h.post(t, `{"kind":"droop"}`)
	h.del(t, "/v1/jobs/"+q.ID)
	h.waitState(t, q.ID, "canceled")
	close(h.release)
	// The canceled job must never reach the run function: only the
	// filler announces.
	select {
	case kind := <-h.started:
		t.Fatalf("canceled queued job ran: %q", kind)
	case <-time.After(100 * time.Millisecond):
	}
	// Its single-flight slot is freed: resubmitting computes anew.
	code, q2, _ := h.post(t, `{"kind":"droop"}`)
	if code != http.StatusAccepted || q2.ID == q.ID {
		t.Fatalf("resubmit after cancel: HTTP %d %+v", code, q2)
	}
	h.waitState(t, q2.ID, "done")
}

// TestPriorityLanes: with the slot busy, a high-priority submission
// overtakes an earlier low-priority one.
func TestPriorityLanes(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, true)
	h.post(t, `{"kind":"dse"}`)
	h.waitStarted(t)
	h.post(t, `{"kind":"droop","priority":"low"}`)
	h.post(t, `{"kind":"nocmc","priority":"high"}`)
	close(h.release)
	if kind := h.waitStarted(t); kind != "nocmc" {
		t.Fatalf("first after release: %q want nocmc (high lane)", kind)
	}
	if kind := h.waitStarted(t); kind != "droop" {
		t.Fatalf("second after release: %q want droop (low lane)", kind)
	}
}

// TestEventsStream: the NDJSON stream replays progress and always ends
// with a terminal state line.
func TestEventsStream(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, false)
	_, j, _ := h.post(t, `{"kind":"droop"}`)
	h.waitState(t, j.ID, "done")

	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	sawProgress := false
	for _, ev := range events {
		if ev.Stage == "test" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("no progress event in stream: %+v", events)
	}
	if last := events[len(events)-1]; last.State != "done" {
		t.Fatalf("stream did not end with terminal state: %+v", last)
	}
}

// TestEventsStreamTerminalProgressReal drives the real runners and
// asserts the progress stream ends at the terminal value, not a stale
// stride boundary. A side-4 droop converges far inside the default
// 200-sweep progress interval — before the terminal tick it emitted no
// "sor" event at all — and the chaos sweep's last "trials" event must
// report every trial done.
func TestEventsStreamTerminalProgressReal(t *testing.T) {
	h := &testHarness{}
	h.srv = New(Config{Slots: 1})
	h.ts = httptest.NewServer(h.srv.Handler())
	t.Cleanup(func() { h.ts.Close(); h.srv.Close() })

	stream := func(id string) []Event {
		t.Helper()
		resp, err := http.Get(h.ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		defer resp.Body.Close()
		var events []Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		return events
	}
	lastOfStage := func(events []Event, stage string) (Event, bool) {
		var out Event
		found := false
		for _, ev := range events {
			if ev.Stage == stage {
				out, found = ev, true
			}
		}
		return out, found
	}

	_, j, _ := h.post(t, `{"kind":"droop","droop":{"side":4}}`)
	h.waitState(t, j.ID, "done")
	_, body := h.get(t, "/v1/jobs/"+j.ID+"/result")
	var dres DroopResult
	if err := json.Unmarshal(body, &dres); err != nil {
		t.Fatalf("droop result decode: %v", err)
	}
	last, ok := lastOfStage(stream(j.ID), "sor")
	if !ok {
		t.Fatal("droop stream has no sor progress event (terminal tick missing)")
	}
	if last.Done != int64(dres.Sweeps) {
		t.Errorf("last sor event Done = %d, solve converged at sweep %d", last.Done, dres.Sweeps)
	}
	if last.Residual != dres.ResidualV {
		t.Errorf("last sor event residual = %g, solution residual %g", last.Residual, dres.ResidualV)
	}

	_, j, _ = h.post(t, `{"kind":"chaos","chaos":{"side":4,"workers":8,"trials":2,"kills":[0,1],"graphSide":6,"maxCycles":80000}}`)
	h.waitState(t, j.ID, "done")
	last, ok = lastOfStage(stream(j.ID), "trials")
	if !ok {
		t.Fatal("chaos stream has no trials progress event")
	}
	if last.Done != last.Total || last.Done != 4 {
		t.Errorf("last trials event %d/%d, want 4/4", last.Done, last.Total)
	}
}

// TestDrainGraceful: drain refuses new work, finishes running jobs and
// leaves no goroutines behind.
func TestDrainGraceful(t *testing.T) {
	before := runtime.NumGoroutine()

	h := &testHarness{started: make(chan string, 32), release: make(chan struct{})}
	h.srv = New(Config{Slots: 2})
	h.srv.runFn = func(ctx context.Context, sp *Spec, workers int, emit func(Event)) (any, error) {
		h.started <- sp.Kind
		select {
		case <-h.release:
			return map[string]string{"ok": "1"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	h.ts = httptest.NewServer(h.srv.Handler())

	_, a, _ := h.post(t, `{"kind":"droop"}`)
	h.waitStarted(t)
	close(h.release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	forced := h.srv.Drain(ctx)
	cancel()
	if forced != 0 {
		t.Fatalf("graceful drain force-canceled %d jobs", forced)
	}
	if j := h.waitState(t, a.ID, "done"); j.State != "done" {
		t.Fatalf("running job not finished by drain: %+v", j)
	}
	code, _, _ := h.post(t, `{"kind":"nocmc"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: HTTP %d want 503", code)
	}
	if code, _ := h.get(t, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d want 503", code)
	}

	h.ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestDrainForceCancel: when the grace period expires, running jobs are
// context-canceled and drain still completes.
func TestDrainForceCancel(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, true)
	_, a, _ := h.post(t, `{"kind":"droop"}`)
	h.waitStarted(t)
	_, q, _ := h.post(t, `{"kind":"nocmc"}`)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	forced := h.srv.Drain(ctx)
	cancel()
	if forced != 1 {
		t.Fatalf("forced=%d want 1", forced)
	}
	h.waitState(t, a.ID, "canceled")
	h.waitState(t, q.ID, "canceled") // queued job canceled at drain start
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, false)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"kind":"nope"}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"kind":"droop","priority":"urgent"}`, http.StatusBadRequest},
		{`{"kind":"droop","droop":{"side":1000}}`, http.StatusBadRequest},
		{`{"kind":"droop","bogusField":1}`, http.StatusBadRequest},
	} {
		if code, _, _ := h.post(t, tc.body); code != tc.want {
			t.Errorf("POST %s: HTTP %d want %d", tc.body, code, tc.want)
		}
	}
	if code, _ := h.get(t, "/v1/jobs/zzz"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: HTTP %d want 404", code)
	}
	if code, _ := h.del(t, "/v1/jobs/zzz"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: HTTP %d want 404", code)
	}
	if code, _ := h.get(t, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz: HTTP %d want 200", code)
	}
}

// TestListFilter exercises GET /v1/jobs with a state filter.
func TestListFilter(t *testing.T) {
	h := newHarness(t, Config{Slots: 1}, false)
	_, j, _ := h.post(t, `{"kind":"droop"}`)
	h.waitState(t, j.ID, "done")
	_, body := h.get(t, "/v1/jobs?state=done")
	var out struct {
		Jobs []wireJob `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != j.ID {
		t.Fatalf("list filter: %+v", out.Jobs)
	}
	_, body = h.get(t, "/v1/jobs?state=queued")
	json.Unmarshal(body, &out)
	if len(out.Jobs) != 0 {
		t.Fatalf("queued filter should be empty: %+v", out.Jobs)
	}
}

// TestConcurrentIdenticalSubmissions hammers one spec from many
// goroutines: exactly one computation must happen regardless of
// interleaving (some callers see the in-flight job, later ones the
// cache).
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	h := newHarness(t, Config{Slots: 2}, false)
	const n = 16
	ids := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"kind":"droop","droop":{"side":5}}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var j wireJob
			json.NewDecoder(resp.Body).Decode(&j)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			ids <- j.ID
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent POST: %v", err)
		}
	}
	// Drain the job IDs and wait for every referenced job to finish.
	close(ids)
	for id := range ids {
		h.waitState(t, id, "done")
	}
	if st := h.stats(t); st.Executed != 1 {
		t.Fatalf("executed=%d want 1 for %d identical submissions", st.Executed, n)
	}
}
