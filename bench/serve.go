package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"waferscale/internal/noc"
	"waferscale/internal/serve"
	"waferscale/internal/store"
	"waferscale/internal/workload"
)

// serve: the simulation daemon behind HTTP on loopback, with its disk
// store and fsync'd job journal, driven by two closed-loop clients on
// one keep-alive connection each. The seeded request sequence is a
// quarter fresh specs, rotating over five job families, and three
// quarters Zipf-distributed repeats of specs already issued: repeats
// read the cache (memory, or disk once the 32-entry LRU has evicted
// them), fresh specs compute and write the journal and the store.
const (
	serveClients   = 2
	serveSlots     = 2
	serveCache     = 32
	serveFreshFrac = 0.25
	serveZipfS     = 1.1
)

var serveFamilies = []string{"workload", "throughput", "droop", "pareto", "nocmc"}

type serveBench struct {
	dir     string
	st      *store.Store
	jr      *store.Journal
	srv     *serve.Server
	hs      *httptest.Server
	clients chan *http.Client
	gen     *requestGen

	mu    sync.Mutex
	first map[int][sha256.Size]byte // spec index -> digest of its first result
	rec   serveRecords
}

// serveRecords accumulates client-side timings over a run's traced
// ops, in milliseconds.
type serveRecords struct {
	all         []float64 // POST -> result read
	cold, hit   []float64 // the same, by outcome
	queue, run  []float64 // server job timestamps, fresh jobs
	notify      []float64 // job finished -> events stream ended
	runByFamily map[string][]float64
}

func setupServe(seed int64) (instance, error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{dir: dir, gen: newRequestGen(seed), first: map[int][sha256.Size]byte{}}
	b.rec.runByFamily = map[string][]float64{}
	var live []store.LiveJob
	if b.st, err = store.Open(filepath.Join(dir, "store"), 0); err == nil {
		b.jr, live, err = store.OpenJournal(filepath.Join(dir, "journal"))
	}
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = serve.New(serve.Config{Slots: serveSlots, CacheEntries: serveCache, Store: b.st, Journal: b.jr})
	b.srv.Recover(live)
	b.hs = httptest.NewServer(b.srv.Handler())
	b.clients = make(chan *http.Client, serveClients)
	for i := 0; i < serveClients; i++ {
		b.clients <- &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return b, nil
}

func (b *serveBench) close() {
	if b.hs != nil {
		b.hs.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	if b.jr != nil {
		b.jr.Close()
	}
	for b.clients != nil && len(b.clients) > 0 {
		(<-b.clients).CloseIdleConnections()
	}
	os.RemoveAll(b.dir)
}

// jobReply is the part of a job status the client reads.
type jobReply struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Cached   bool       `json:"cached"`
	Deduped  bool       `json:"deduped"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

func (b *serveBench) op(root *span, i int) (map[string]float64, error) {
	req := b.gen.request(i)
	cl := <-b.clients
	defer func() { b.clients <- cl }()
	t0 := time.Now()

	var sub jobReply
	if err := call(cl, http.MethodPost, b.hs.URL+"/v1/jobs", req.body, &sub, nil); err != nil {
		return nil, err
	}
	outcome := "cold"
	switch {
	case sub.Cached:
		outcome = "hit"
	case sub.Deduped:
		outcome = "join"
	}
	root.childAt("serve.submit."+outcome, t0, time.Now())

	var streamEnd time.Time
	if sub.State != string(serve.StateDone) {
		sp := root.child("serve.events")
		state, err := waitTerminal(cl, b.hs.URL+"/v1/jobs/"+sub.ID+"/events")
		sp.end()
		streamEnd = time.Now()
		if err != nil {
			return nil, err
		}
		if state != string(serve.StateDone) {
			return nil, fmt.Errorf("job %s (%s) ended %s", sub.ID, req.family, state)
		}
	}

	sp := root.child("serve.result")
	var result []byte
	err := call(cl, http.MethodGet, b.hs.URL+"/v1/jobs/"+sub.ID+"/result", nil, nil, &result)
	sp.end()
	if err != nil {
		return nil, err
	}
	latency := ms(time.Since(t0))
	if err := b.check(req, result); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, nil
	}
	// The server-side stage times of a fresh job come from its status,
	// fetched after the op's last span.
	var st jobReply
	if outcome == "cold" {
		if err := call(cl, http.MethodGet, b.hs.URL+"/v1/jobs/"+sub.ID, nil, &st, nil); err != nil {
			return nil, err
		}
		if st.Started == nil || st.Finished == nil {
			return nil, fmt.Errorf("job %s done without start/finish timestamps", sub.ID)
		}
	}
	b.mu.Lock()
	b.rec.add(outcome, req.family, latency, st, streamEnd)
	b.mu.Unlock()
	return nil, nil
}

func (r *serveRecords) add(outcome, family string, latency float64, st jobReply, streamEnd time.Time) {
	r.all = append(r.all, latency)
	switch outcome {
	case "hit":
		r.hit = append(r.hit, latency)
	case "cold":
		run := ms(st.Finished.Sub(*st.Started))
		r.cold = append(r.cold, latency)
		r.queue = append(r.queue, ms(st.Started.Sub(st.Created)))
		r.run = append(r.run, run)
		r.notify = append(r.notify, ms(streamEnd.Sub(*st.Finished)))
		r.runByFamily[family] = append(r.runByFamily[family], run)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check verifies a result: the first result of a spec must be a
// correct answer, and every later one must repeat it byte for byte.
func (b *serveBench) check(req request, result []byte) error {
	sum := sha256.Sum256(result)
	b.mu.Lock()
	want, seen := b.first[req.spec]
	if !seen {
		b.first[req.spec] = sum
	}
	b.mu.Unlock()
	if seen {
		if sum != want {
			return fmt.Errorf("spec %d (%s): result differs from its first", req.spec, req.family)
		}
		return nil
	}
	if req.family == "workload" {
		var wr struct {
			Verified   bool     `json:"verified"`
			Mismatched []string `json:"mismatched"`
		}
		if err := json.Unmarshal(result, &wr); err != nil {
			return fmt.Errorf("spec %d: decode workload result: %w", req.spec, err)
		}
		if !wr.Verified {
			return fmt.Errorf("spec %d: workload result not verified (mismatched %v)", req.spec, wr.Mismatched)
		}
	}
	return nil
}

// call makes one request and requires a 2xx reply, decoding it into
// into or copying it to raw.
func call(cl *http.Client, method, url string, body []byte, into any, raw *[]byte) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if raw != nil {
		*raw = data
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			return fmt.Errorf("%s %s: decode reply: %w", method, url, err)
		}
	}
	return nil
}

// waitTerminal reads a job's NDJSON event stream to its end (the
// server closes it once the job is terminal) and returns the last
// state it reported.
func waitTerminal(cl *http.Client, url string) (string, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("GET %s: decode event: %w", url, err)
		}
		if ev.State != "" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	return state, nil
}

func (b *serveBench) layers(ts traceSummary, _ map[string]float64) map[string]float64 {
	snap := b.srv.Snapshot()
	ss := b.st.Stats()
	r := &b.rec
	out := map[string]float64{
		"serve.submit_ms.hit":  ts.perCall("serve.submit.hit", time.Millisecond),
		"serve.submit_ms.cold": ts.perCall("serve.submit.cold", time.Millisecond),
		"serve.result_ms":      ts.perCall("serve.result", time.Millisecond),
		"serve.cold_p50_ms":    median(r.cold),
		"serve.hit_p50_ms":     median(r.hit),
		// A traced run makes thousands of requests (its attempted
		// count), so at least ten lie beyond the 99th percentile.
		"serve.latency_p99_ms":     p99(r.all),
		"serve.queue_ms":           mean(r.queue),
		"serve.run_ms":             mean(r.run),
		"serve.notify_ms":          mean(r.notify),
		"serve.cache_hit_ratio":    ratio(snap.Cache.Hits, snap.Cache.Hits+snap.Cache.Misses),
		"store.hit_ratio":          ratio(ss.Hits, snap.Cache.Misses),
		"journal.appends_per_cold": ratio(b.jr.Appends(), snap.Admitted),
		"store.puts_per_cold":      ratio(ss.Puts, snap.Admitted),
		"serve.joins":              float64(snap.InflightJoins),
		"serve.rejected":           float64(snap.Rejected),
	}
	for _, f := range serveFamilies {
		out["serve.run_ms."+f] = mean(r.runByFamily[f])
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// request is entry i of the seeded request sequence.
type request struct {
	spec   int // index of the fresh spec it issues or repeats
	family string
	body   []byte
}

// requestGen produces the request sequence lazily, in index order, so
// entry i is the same whichever client asks for it first.
type requestGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seq   []request
	fresh []request // the fresh specs in issue order
	seen  map[string]bool
}

func newRequestGen(seed int64) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (g *requestGen) request(i int) request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.seq) <= i {
		n := len(g.fresh)
		if n == 0 || g.rng.Float64() < serveFreshFrac {
			r := g.newSpec(n)
			g.fresh = append(g.fresh, r)
			g.seq = append(g.seq, r)
			continue
		}
		k := 0
		if n > 1 {
			k = int(rand.NewZipf(g.rng, serveZipfS, 1, uint64(n-1)).Uint64())
		}
		g.seq = append(g.seq, g.fresh[k])
	}
	return g.seq[i]
}

// newSpec draws fresh spec number n, rotating over the families and
// redrawing until the spec differs from every earlier one. Each family
// is sized so its cold compute is tens of milliseconds. Spec 0, the
// warm-up request and the most repeated spec, is the daemon's default
// transformer run at every seed, so set-up time does not vary with it.
func (g *requestGen) newSpec(n int) request {
	family := serveFamilies[n%len(serveFamilies)]
	topos, placements := noc.TopologyNames(), workload.PlacementNames()
	for {
		var sp serve.Spec
		rng := g.rng
		switch {
		case n == 0:
			sp = serve.Spec{Kind: "workload", Workload: &serve.WorkloadSpec{Side: 4}}
		case family == "workload":
			sp = serve.Spec{Kind: "workload", Workload: &serve.WorkloadSpec{
				Side: 4, Topology: topos[rng.Intn(len(topos))], Placement: placements[rng.Intn(len(placements))],
				Tokens: 4 + rng.Intn(5), Dim: 4 + rng.Intn(5), Experts: 1 + rng.Intn(4),
			}}
		case family == "throughput":
			side := 4 + 2*rng.Intn(6)
			sp = serve.Spec{Kind: "throughput", Throughput: &serve.ThroughputSpec{
				Side: side, Faults: rng.Intn(side), Seed: 1 + rng.Int63n(1<<30),
				Model: noc.ModelNameAnalytical, Topology: topos[rng.Intn(len(topos))],
			}}
		case family == "droop":
			sp = serve.Spec{Kind: "droop", Droop: &serve.DroopSpec{
				Side: 6 + rng.Intn(11), EdgeVolts: 2.0 + float64(rng.Intn(1000))/1000,
			}}
		case family == "pareto":
			sp = serve.Spec{Kind: "pareto", Pareto: &serve.ParetoSpec{
				Sides:   pick(rng, []int{8, 12, 16, 24, 32}),
				EdgeV:   pick(rng, []float64{2.0, 2.25, 2.5, 2.75, 3.0}),
				Pillars: pick(rng, []int{1, 2, 3}),
				Mode:    "screen",
			}}
		case family == "nocmc":
			sp = serve.Spec{Kind: "nocmc", NoCMC: &serve.NoCMCSpec{
				Trials: 1, Seed: 1 + rng.Int63n(1<<30), MaxFaults: 2 + rng.Intn(3),
			}}
		}
		body, err := json.Marshal(sp)
		if err != nil {
			panic(err) // a Spec is plain data
		}
		if !g.seen[string(body)] {
			g.seen[string(body)] = true
			return request{spec: n, family: family, body: body}
		}
	}
}

// pick returns a random non-empty subset of xs, in order.
func pick[T any](rng *rand.Rand, xs []T) []T {
	for {
		var out []T
		for _, x := range xs {
			if rng.Intn(2) == 0 {
				out = append(out, x)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}
