package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"waferscale/internal/parallel"
	"waferscale/internal/store"
)

// Config sizes the server.
type Config struct {
	// Slots is the number of jobs computed concurrently; 0 means
	// GOMAXPROCS. The CPU budget is partitioned across the slots
	// (each job is granted Budget.Total()/Slots workers, at least 1),
	// so co-scheduled jobs never oversubscribe the host.
	Slots int
	// QueueDepth bounds the queued-job backlog across all priority
	// lanes; 0 means 64. A full queue answers 429 with Retry-After.
	QueueDepth int
	// CacheEntries / CacheBytes bound the result cache; 0 means the
	// NewCache defaults (256 entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// MaxJobRecords bounds retained job metadata; terminal records are
	// pruned oldest-first past the bound. 0 means 1024.
	MaxJobRecords int
	// Budget supplies the CPU tokens; nil means a fresh GOMAXPROCS
	// pool. Inject a shared budget when the daemon co-hosts other
	// CPU-bound work.
	Budget *parallel.Budget

	// Store, when non-nil, is the disk tier beneath the in-memory
	// cache: results are written through on completion and served (and
	// promoted) on memory misses, so completed work survives restarts.
	Store *store.Store
	// Journal, when non-nil, is the write-ahead job log: submissions
	// are recorded before the 202 reply and transitions after, so a
	// crashed daemon's interrupted jobs can be re-enqueued by Recover.
	// A server built with a Journal is not ready (see /readyz) until
	// Recover runs.
	Journal *store.Journal

	// StallTimeout enables the stuck-job watchdog: a running job whose
	// progress events stall longer than this is context-canceled and
	// retried (up to StallRetries times, with jittered exponential
	// backoff starting at RetryBackoff) before being failed. 0
	// disables the watchdog.
	StallTimeout time.Duration
	// StallPoll is the watchdog scan interval; 0 means StallTimeout/4
	// (at least 100ms).
	StallPoll time.Duration
	// StallRetries bounds watchdog-triggered re-runs per job; 0 means
	// 2. Negative means no retries (a stalled job fails immediately).
	StallRetries int
	// RetryBackoff is the base delay before a stalled job re-enters
	// the queue; 0 means 1s. The k-th retry waits about
	// RetryBackoff<<k plus up to 50% jitter, so co-stalled jobs do not
	// retry in lockstep.
	RetryBackoff time.Duration
}

// Server is the simulation-as-a-service daemon core: a bounded
// priority job queue, a worker pool partitioning the CPU budget, a
// content-addressed result cache (in-memory LRU over an optional disk
// store) with single-flight dedup of identical in-flight requests, a
// write-ahead job journal with crash recovery, per-job panic
// isolation, a stuck-job watchdog, job lifecycle plus chunked progress
// streaming over HTTP, and graceful drain.
type Server struct {
	slots        int
	maxRec       int
	cache        *Cache
	budget       *parallel.Budget
	mux          *http.ServeMux
	runFn        func(context.Context, *Spec, int, func(Event)) (any, error)
	disk         *store.Store
	journal      *store.Journal
	stallTimeout time.Duration
	stallPoll    time.Duration
	stallRetries int
	retryBackoff time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	queue    *jobQueue
	jobs     map[string]*Job
	order    []string        // insertion order, for listing and pruning
	inflight map[string]*Job // cache key -> queued/running job (single-flight)
	running  int
	draining bool
	ready    bool
	idSeq    int64
	rng      *rand.Rand // backoff jitter (service-level; no determinism contract)

	// Recent completed-job durations (ring) sizing Retry-After.
	recentDur [32]time.Duration
	durIdx    int
	durN      int

	// Counters (under mu).
	admitted, rejected, joins, executed int64
	panics, stalls, stallRequeues       int64
	journalErrors, storeErrors          int64
	recovered                           int

	watchStop chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New builds a Server and starts its worker pool. Callers must Drain
// (or Close) it to stop the workers. If cfg.Journal is set the server
// reports not-ready until Recover is called.
func New(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxJobRecords <= 0 {
		cfg.MaxJobRecords = 1024
	}
	if cfg.Budget == nil {
		cfg.Budget = parallel.NewBudget(0)
	}
	if cfg.StallRetries == 0 {
		cfg.StallRetries = 2
	}
	if cfg.StallRetries < 0 {
		cfg.StallRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Second
	}
	if cfg.StallPoll <= 0 {
		cfg.StallPoll = cfg.StallTimeout / 4
		if cfg.StallPoll < 100*time.Millisecond {
			cfg.StallPoll = 100 * time.Millisecond
		}
	}
	s := &Server{
		slots:        cfg.Slots,
		maxRec:       cfg.MaxJobRecords,
		cache:        NewCache(cfg.CacheEntries, cfg.CacheBytes),
		budget:       cfg.Budget,
		disk:         cfg.Store,
		journal:      cfg.Journal,
		stallTimeout: cfg.StallTimeout,
		stallPoll:    cfg.StallPoll,
		stallRetries: cfg.StallRetries,
		retryBackoff: cfg.RetryBackoff,
		queue:        newJobQueue(cfg.QueueDepth),
		jobs:         make(map[string]*Job),
		inflight:     make(map[string]*Job),
		ready:        cfg.Journal == nil,
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
		runFn:        Run,
		watchStop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.buildMux()
	for i := 0; i < s.slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.stallTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// journalLocked appends a journal record, counting (never surfacing)
// append errors — a sick journal must not take the serving path down.
// Caller holds s.mu.
func (s *Server) journalLocked(r store.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r); err != nil {
		s.journalErrors++
	}
}

// worker pulls jobs off the priority queue and executes them until the
// server drains and the queue is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.draining && s.queue.depth() == 0 {
			s.cond.Wait()
		}
		j := s.queue.pop()
		if j == nil { // draining and nothing left
			s.mu.Unlock()
			return
		}
		grant := s.budget.Acquire(parallel.FairShare(s.budget.Total(), s.slots))
		j.state = StateRunning
		j.started = time.Now()
		j.lastProgress = time.Time{}
		j.workers = grant
		s.running++
		s.executed++
		s.journalLocked(store.Record{Op: store.OpStarted, ID: j.ID, Key: j.Key})
		j.publish(Event{State: string(StateRunning)})
		s.mu.Unlock()

		res, err := s.runIsolated(j, grant)
		s.budget.Release(grant)

		// Marshal and persist outside the lock: disk writes must not
		// stall the HTTP path.
		var payload json.RawMessage
		var merr error
		if err == nil {
			payload, merr = json.Marshal(res)
			if merr == nil && s.disk != nil {
				if serr := s.disk.Put(j.Key, payload); serr != nil {
					s.mu.Lock()
					s.storeErrors++
					s.mu.Unlock()
				}
			}
		}

		s.mu.Lock()
		s.running--
		switch {
		case err == nil && merr != nil:
			s.finishLocked(j, StateFailed, fmt.Sprintf("marshal result: %v", merr), nil)
		case err == nil:
			s.cache.Put(j.Key, payload)
			s.finishLocked(j, StateDone, "", payload)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if j.stalled && !s.draining && j.attempts < s.stallRetries {
				s.requeueStalledLocked(j)
			} else if j.stalled {
				s.finishLocked(j, StateFailed,
					fmt.Sprintf("stalled: no progress for %s, gave up after %d attempt(s)", s.stallTimeout, j.attempts+1), nil)
			} else {
				s.finishLocked(j, StateCanceled, "canceled", nil)
			}
		default:
			s.finishLocked(j, StateFailed, err.Error(), nil)
		}
		s.mu.Unlock()
	}
}

// runIsolated executes the job's analysis with panic isolation: a
// panicking analysis fails that job with the captured stack instead of
// taking the daemon down — the serving-layer analogue of routing
// around a dead chiplet.
func (s *Server) runIsolated(j *Job, grant int) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return s.runFn(j.ctx, j.Spec, grant, func(ev Event) {
		s.mu.Lock()
		j.lastProgress = time.Now()
		j.publish(ev)
		s.mu.Unlock()
	})
}

// watchdog scans running jobs and cancels any whose progress events
// have stalled beyond StallTimeout; the worker then retries it with
// backoff (requeueStalledLocked) or fails it.
func (s *Server) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(s.stallPoll)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
		}
		now := time.Now()
		s.mu.Lock()
		for _, id := range s.order {
			j := s.jobs[id]
			if j == nil || j.state != StateRunning || j.stalled {
				continue
			}
			last := j.lastProgress
			if last.IsZero() {
				last = j.started
			}
			if now.Sub(last) > s.stallTimeout {
				j.stalled = true
				s.stalls++
				j.publish(Event{Stage: "watchdog", Error: fmt.Sprintf("no progress for %s: canceling", now.Sub(last).Round(time.Millisecond))})
				j.cancel()
			}
		}
		s.mu.Unlock()
	}
}

// requeueStalledLocked sends a watchdog-canceled job back to its queue
// lane after a jittered exponential backoff (synchronized stalls —
// e.g. a host-wide pause — must not retry in lockstep). The job keeps
// its identity, single-flight entry and journal acceptance; it gets a
// fresh context. Caller holds s.mu.
func (s *Server) requeueStalledLocked(j *Job) {
	j.attempts++
	s.stallRequeues++
	j.stalled = false
	j.state = StateQueued
	j.started = time.Time{}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	delay := s.retryBackoff << uint(j.attempts-1)
	delay += time.Duration(s.rng.Int63n(int64(delay)/2 + 1))
	j.publish(Event{State: string(StateQueued), Stage: "watchdog",
		Error: fmt.Sprintf("stalled; retry %d/%d in %s", j.attempts, s.stallRetries, delay.Round(time.Millisecond))})
	j.retryTimer = time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.retryTimer = nil
		if j.state != StateQueued { // canceled or finished meanwhile
			return
		}
		if s.draining {
			s.finishLocked(j, StateCanceled, "server draining", nil)
			return
		}
		if !s.queue.push(j) {
			s.finishLocked(j, StateFailed, "queue full on stall retry", nil)
			return
		}
		s.cond.Signal()
	})
}

// finishLocked moves a job to a terminal state, publishes the terminal
// event, journals the transition, releases its subscribers and clears
// its single-flight entry. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, st State, errStr string, result json.RawMessage) {
	if j.state.terminal() {
		return
	}
	j.state = st
	j.err = errStr
	j.result = result
	j.finished = time.Now()
	j.cancel() // release the context's resources in every path
	if j.retryTimer != nil {
		j.retryTimer.Stop()
		j.retryTimer = nil
	}
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	if st == StateDone && !j.started.IsZero() {
		s.recordDurationLocked(j.finished.Sub(j.started))
	}
	var op string
	switch st {
	case StateDone:
		op = store.OpDone
	case StateFailed:
		op = store.OpFailed
	default:
		op = store.OpCanceled
	}
	s.journalLocked(store.Record{Op: op, ID: j.ID, Key: j.Key, Error: errStr})
	j.publish(Event{State: string(st), Error: errStr})
	j.closeSubs()
}

// minMeanJobDuration is the floor on the observed mean job duration
// used by the Retry-After estimator (see retryAfterLocked).
const minMeanJobDuration = 100 * time.Millisecond

// recordDurationLocked feeds the Retry-After estimator. Caller holds
// s.mu.
func (s *Server) recordDurationLocked(d time.Duration) {
	s.recentDur[s.durIdx] = d
	s.durIdx = (s.durIdx + 1) % len(s.recentDur)
	if s.durN < len(s.recentDur) {
		s.durN++
	}
}

// retryAfterLocked estimates how long a rejected client should wait:
// the backlog ahead of it, divided across the slots, times the mean
// recent job duration. With no history yet it assumes 2s per job; a
// recorded mean is floored at minMeanJobDuration so a ring full of
// near-instant completions (cache-warm jobs, coarse clocks rounding
// sub-millisecond runs to zero) cannot collapse the estimate to
// "retry immediately" while a deep backlog still has to drain.
// Caller holds s.mu.
func (s *Server) retryAfterLocked() int {
	mean := 2 * time.Second
	if s.durN > 0 {
		var sum time.Duration
		for i := 0; i < s.durN; i++ {
			sum += s.recentDur[i]
		}
		mean = sum / time.Duration(s.durN)
		if mean < minMeanJobDuration {
			mean = minMeanJobDuration
		}
	}
	secs := math.Ceil(float64(s.queue.depth()+s.running) / float64(s.slots) * mean.Seconds())
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return int(secs)
}

// newJobLocked registers a job record. Caller holds s.mu.
func (s *Server) newJobLocked(sp *Spec, key string, prio Priority) *Job {
	s.idSeq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:       "j" + strconv.FormatInt(s.idSeq, 10),
		Key:      key,
		Spec:     sp,
		Priority: prio,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		created:  time.Now(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.pruneLocked()
	return j
}

// pruneLocked drops the oldest terminal job records past MaxJobRecords
// so a long-lived daemon's memory stays bounded. Caller holds s.mu.
func (s *Server) pruneLocked() {
	if len(s.order) <= s.maxRec {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxRec
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.state.terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// RecoveryStats summarizes a Recover pass.
type RecoveryStats struct {
	// Requeued jobs were interrupted mid-flight and are running again.
	Requeued int `json:"requeued"`
	// FromStore jobs already had a durable result on disk (the crash
	// hit between the store write and the journal's terminal record);
	// they are marked done without recomputation.
	FromStore int `json:"fromStore"`
	// Dropped jobs could not be revived (spec no longer normalizes
	// after a version change, or the queue was full); each is closed
	// out in the journal so it is not retried forever.
	Dropped int `json:"dropped"`
}

// Recover re-enqueues the journal's live jobs — the ones a previous
// process accepted but never finished — and marks the server ready.
// Idempotency is free: jobs are content-addressed, so an interrupted
// job whose result actually made it to the disk store is recognized
// and closed out instead of recomputed, and duplicate live entries
// collapse through the single-flight index. Call it once, after New
// and before serving traffic.
func (s *Server) Recover(live []store.LiveJob) RecoveryStats {
	var rs RecoveryStats
	for _, lj := range live {
		rs = s.recoverOne(lj, rs)
	}
	s.mu.Lock()
	s.recovered = rs.Requeued
	s.ready = true
	s.mu.Unlock()
	return rs
}

func (s *Server) recoverOne(lj store.LiveJob, rs RecoveryStats) RecoveryStats {
	var sp Spec
	if err := json.Unmarshal(lj.Spec, &sp); err != nil {
		s.mu.Lock()
		s.journalLocked(store.Record{Op: store.OpFailed, ID: lj.ID, Key: lj.Key, Error: "recovery: spec unreadable"})
		s.mu.Unlock()
		rs.Dropped++
		return rs
	}
	if err := sp.Normalize(); err != nil {
		s.mu.Lock()
		s.journalLocked(store.Record{Op: store.OpFailed, ID: lj.ID, Key: lj.Key, Error: fmt.Sprintf("recovery: %v", err)})
		s.mu.Unlock()
		rs.Dropped++
		return rs
	}
	key := sp.CacheKey()
	prio, perr := ParsePriority(lj.Priority)
	if perr != nil {
		prio = PriorityNormal
	}
	// The result may already be durable: the crash landed between the
	// store write and the journal's terminal append.
	if s.disk != nil {
		if payload, ok := s.disk.Get(key); ok {
			s.mu.Lock()
			s.cache.Put(key, payload)
			s.journalLocked(store.Record{Op: store.OpDone, ID: lj.ID, Key: lj.Key})
			s.mu.Unlock()
			rs.FromStore++
			return rs
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.inflight[key]; dup {
		// Another live entry (or an early client) already revived this
		// key; close out this record.
		s.journalLocked(store.Record{Op: store.OpCanceled, ID: lj.ID, Key: lj.Key, Error: "recovery: superseded"})
		return rs
	}
	j := s.newJobLocked(&sp, key, prio)
	j.recovered = true
	if !s.queue.push(j) {
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		j.cancel()
		s.journalLocked(store.Record{Op: store.OpFailed, ID: lj.ID, Key: lj.Key, Error: "recovery: queue full"})
		rs.Dropped++
		return rs
	}
	s.admitted++
	s.inflight[key] = j
	// Re-accept under the fresh ID; the old ID's record dies with the
	// key-based replay once this run reaches a terminal record.
	specJSON, _ := json.Marshal(&sp)
	s.journalLocked(store.Record{Op: store.OpAccepted, ID: j.ID, Key: key, Priority: prio.String(), Spec: specJSON})
	j.publish(Event{State: string(StateQueued), Stage: "recovery"})
	s.cond.Signal()
	rs.Requeued++
	return rs
}

// Drain gracefully shuts the server down: new submissions are refused,
// queued jobs (including those parked in watchdog backoff) are
// canceled immediately, and running jobs are given until ctx expires
// to finish before their contexts are canceled too. It returns the
// number of running jobs that had to be force-canceled (0 for a clean
// drain) once every worker goroutine has exited.
func (s *Server) Drain(ctx context.Context) int {
	s.stopOnce.Do(func() { close(s.watchStop) })
	s.mu.Lock()
	s.draining = true
	for {
		j := s.queue.pop()
		if j == nil {
			break
		}
		s.finishLocked(j, StateCanceled, "server draining", nil)
	}
	// Jobs in watchdog backoff are queued but not in the queue; sweep
	// them too (finishLocked stops their timers).
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.state == StateQueued {
			s.finishLocked(j, StateCanceled, "server draining", nil)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	forced := 0
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, id := range s.order {
			if j := s.jobs[id]; j != nil && j.state == StateRunning {
				j.cancel()
				forced++
			}
		}
		s.mu.Unlock()
		<-done // runners observe cancellation at bounded strides
	}
	return forced
}

// Close force-drains with no grace period (tests and defer paths).
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// --- HTTP layer ---

// submitRequest is the POST /v1/jobs body: the spec fields plus a
// scheduling priority (which is deliberately not part of the cache
// key).
type submitRequest struct {
	Priority string `json:"priority"`
	Spec
}

// submitResponse is the POST /v1/jobs reply.
type submitResponse struct {
	JobStatus
	Deduped bool `json:"deduped,omitempty"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Cache         CacheStats         `json:"cache"`
	Store         *store.Stats       `json:"store,omitempty"`
	Journal       *store.ReplayStats `json:"journal,omitempty"`
	InflightJoins int64              `json:"inflightJoins"`
	Admitted      int64              `json:"admitted"`
	Rejected      int64              `json:"rejected"`
	Executed      int64              `json:"executed"`
	Panics        int64              `json:"panics"`
	Stalls        int64              `json:"stalls"`
	StallRequeues int64              `json:"stallRequeues"`
	Recovered     int                `json:"recovered"`
	JournalErrors int64              `json:"journalErrors,omitempty"`
	StoreErrors   int64              `json:"storeErrors,omitempty"`
	QueueDepth    int                `json:"queueDepth"`
	QueueLanes    map[string]int     `json:"queueLanes"`
	Running       int                `json:"running"`
	Slots         int                `json:"slots"`
	BudgetTotal   int                `json:"budgetTotal"`
	BudgetFree    int                `json:"budgetFree"`
	Ready         bool               `json:"ready"`
	Draining      bool               `json:"draining"`
	Jobs          map[string]int     `json:"jobs"`
	Goroutines    int                `json:"goroutines"`
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp := req.Spec
	if err := sp.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := sp.CacheKey()
	specJSON, _ := json.Marshal(&sp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Content-addressed fast path: the exact question was answered
	// before — the job is born done with the cached result. The memory
	// LRU is probed first; a disk hit is promoted into it.
	payload, ok := s.cache.Get(key)
	if !ok && s.disk != nil {
		if dp, dok := s.disk.Get(key); dok {
			payload, ok = dp, true
			s.cache.Put(key, dp)
		}
	}
	if ok {
		j := s.newJobLocked(&sp, key, prio)
		j.cached = true
		j.result = payload
		j.started, j.finished = j.created, j.created
		j.state = StateDone
		j.cancel()
		j.publish(Event{State: string(StateDone)})
		j.closeSubs()
		resp := submitResponse{JobStatus: j.status(false)}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Single-flight: an identical request is already queued or running
	// — join it instead of computing twice.
	if live, ok := s.inflight[key]; ok {
		live.joins++
		s.joins++
		resp := submitResponse{JobStatus: live.status(false), Deduped: true}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Admission control: a full queue refuses rather than buffering
	// unboundedly; Retry-After scales with the backlog and the mean
	// recent job duration, so clients back off proportionally to how
	// long the backlog will actually take to clear.
	j := s.newJobLocked(&sp, key, prio)
	if !s.queue.push(j) {
		s.rejected++
		// Roll the record back — it never entered the system.
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		j.cancel()
		depth := s.queue.depth()
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "queue full (%d jobs)", depth)
		return
	}
	s.admitted++
	s.inflight[key] = j
	// Write-ahead: the acceptance is durable before the client hears
	// 202, so a crash after this reply cannot forget the job.
	s.journalLocked(store.Record{Op: store.OpAccepted, ID: j.ID, Key: key, Priority: prio.String(), Spec: specJSON})
	j.publish(Event{State: string(StateQueued)})
	s.cond.Signal()
	resp := submitResponse{JobStatus: j.status(false)}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || (stateFilter != "" && string(j.state) != stateFilter) {
			continue
		}
		out = append(out, j.status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status(true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	state, errStr, payload := j.state, j.err, j.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errStr)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"state": string(state)})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch j.state {
	case StateQueued:
		// Covers both a job in the queue and one parked in watchdog
		// backoff (remove is a no-op for the latter; finishLocked stops
		// its retry timer).
		s.queue.remove(j)
		s.finishLocked(j, StateCanceled, "canceled by client", nil)
	case StateRunning:
		// The worker owns the terminal transition; canceling the
		// context makes the runner return promptly and the slot's CPU
		// grant flow to the next queued job. Clearing stalled keeps the
		// watchdog retry path from resurrecting a client-canceled job.
		j.stalled = false
		j.cancel()
	}
	st := j.status(false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	ch, replay := j.subscribe()
	s.mu.Unlock()

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, ev := range replay {
		enc.Encode(ev)
	}
	if canFlush {
		flusher.Flush()
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// Terminal: the state event is normally already in the
				// stream, but a lossy subscriber buffer may have
				// dropped it — emit the final state unconditionally
				// (clients must tolerate a duplicate).
				s.mu.Lock()
				final := Event{Seq: j.seq, UnixMS: time.Now().UnixMilli(), State: string(j.state), Error: j.err}
				s.mu.Unlock()
				enc.Encode(final)
				if canFlush {
					flusher.Flush()
				}
				return
			}
			enc.Encode(ev)
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			s.mu.Lock()
			j.unsubscribe(ch)
			s.mu.Unlock()
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot returns the server counters (also used by the daemon's
// drain logging and the tests).
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	lanes := s.queue.depths()
	st := Stats{
		InflightJoins: s.joins,
		Admitted:      s.admitted,
		Rejected:      s.rejected,
		Executed:      s.executed,
		Panics:        s.panics,
		Stalls:        s.stalls,
		StallRequeues: s.stallRequeues,
		Recovered:     s.recovered,
		JournalErrors: s.journalErrors,
		StoreErrors:   s.storeErrors,
		QueueDepth:    s.queue.depth(),
		QueueLanes: map[string]int{
			"high":   lanes[PriorityHigh],
			"normal": lanes[PriorityNormal],
			"low":    lanes[PriorityLow],
		},
		Running:     s.running,
		Slots:       s.slots,
		BudgetTotal: s.budget.Total(),
		Ready:       s.ready,
		Draining:    s.draining,
		Jobs:        map[string]int{},
		Goroutines:  runtime.NumGoroutine(),
	}
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			st.Jobs[string(j.state)]++
		}
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	st.BudgetFree = s.budget.Free()
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Store = &ds
	}
	if s.journal != nil {
		js := s.journal.ReplayStats()
		st.Journal = &js
	}
	return st
}

// handleHealthz is liveness: the daemon is up and able to answer (it
// stays healthy through panicking jobs and recovery; only a drain
// reports unhealthy so load balancers stop routing to it).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only once startup recovery has
// re-enqueued the journal's interrupted jobs (and never while
// draining), so a restarted daemon is not routed traffic it would
// answer with an incomplete view of the world.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !ready:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
