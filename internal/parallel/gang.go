package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Gang is a reusable fork-join worker gang for fine-grained, per-cycle
// parallelism (the cyclic-barrier pattern): a fixed set of persistent
// goroutines that the caller releases once per step, each executing a
// statically assigned subset of tasks, with the caller blocking until
// every worker has finished. Unlike ForEach — which dispatches work
// items dynamically through an atomic counter and is meant for
// coarse-grained trials — Gang assigns task t to worker t%workers, so
// the task->worker mapping is fixed regardless of scheduling. Combined
// with per-task output slots this keeps sharded cycle engines
// bit-identical at any worker count.
//
// The release path matters because a cycle engine calls Run millions of
// times. Gang amortizes goroutine creation across the simulation's
// lifetime and wakes workers with a spin-then-park wait: a worker first
// spins (yielding) for the next epoch and only then parks on its own
// 1-buffered channel, so on a busy simulation a release usually costs
// one atomic store plus one atomic load per worker and no channel
// traffic.
//
// A Gang is NOT safe for concurrent use: only one Run may be active at
// a time (the caller participates as worker 0). Call Close when done to
// release the worker goroutines; a Gang with workers <= 1 has no
// goroutines and Run executes inline.
type Gang struct {
	workers int
	closed  bool

	// epoch is bumped by Run to release the workers (closeEpoch on
	// Close); each worker remembers the last epoch it served.
	epoch atomic.Uint64
	// pending counts active workers (including the caller) that have
	// not finished the current epoch; whoever decrements it to zero
	// sends the single per-epoch token on done.
	pending atomic.Int64
	done    chan struct{}

	// per-worker parking. parked[w] is set (with a re-check of epoch)
	// before worker w blocks on wake[w]; Run sends a token to every
	// worker it observes parked. Sequentially consistent atomics
	// guarantee that at least one side sees the other (epoch store /
	// parked load in Run vs parked store / epoch load in the worker),
	// so a release is never missed. Stale tokens only cause a spurious
	// wake-up, which the worker's epoch re-check loop absorbs.
	parked []atomic.Bool
	wake   []chan struct{}

	// per-epoch job, read by workers after observing the epoch bump
	// (the atomic release/acquire edge orders these writes).
	tasks int
	fn    func(task int)

	panicMu  sync.Mutex
	panicVal any
	panicSet bool
}

// closeEpoch is the sentinel epoch value that tells workers to exit.
const closeEpoch = ^uint64(0)

// NewGang creates a gang of the given width. workers <= 1 yields an
// inline gang (no goroutines). The gang holds workers-1 goroutines; the
// caller of Run acts as worker 0.
func NewGang(workers int) *Gang {
	if workers < 1 {
		workers = 1
	}
	g := &Gang{
		workers: workers,
		done:    make(chan struct{}, 1),
		parked:  make([]atomic.Bool, workers),
		wake:    make([]chan struct{}, workers),
	}
	for w := 1; w < workers; w++ {
		g.wake[w] = make(chan struct{}, 1)
		go g.worker(w)
	}
	return g
}

// Run executes fn(task) for every task in [0, tasks), assigning task t
// to worker t%workers, and returns once every task is complete. fn must
// not call Run or Close on the same gang. If any fn panics, Run
// re-panics with the first recovered value after all workers have
// drained the epoch; the gang remains usable.
func (g *Gang) Run(tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if g.workers == 1 || tasks == 1 {
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	if g.closed {
		panic("parallel: Run on closed Gang")
	}
	g.tasks = tasks
	g.fn = fn
	g.panicSet = false
	g.panicVal = nil

	// Every worker joins the barrier each epoch (serve strides past the
	// task count when tasks < workers), so no worker ever reads the job
	// fields outside the epoch's happens-before window.
	g.pending.Store(int64(g.workers))
	g.epoch.Add(1) // release: workers observe the new epoch
	for w := 1; w < g.workers; w++ {
		if g.parked[w].Load() {
			select {
			case g.wake[w] <- struct{}{}:
			default: // token already queued
			}
		}
	}

	g.serve(0) // caller is worker 0
	<-g.done   // exactly one token per epoch, sent by the last finisher

	g.fn = nil
	if g.panicSet {
		panic(g.panicVal)
	}
}

// serve runs worker w's share of the current epoch and performs the
// finish accounting.
func (g *Gang) serve(w int) {
	defer func() {
		if r := recover(); r != nil {
			g.panicMu.Lock()
			if !g.panicSet {
				g.panicSet = true
				g.panicVal = r
			}
			g.panicMu.Unlock()
		}
		if g.pending.Add(-1) == 0 {
			g.done <- struct{}{}
		}
	}()
	tasks, fn := g.tasks, g.fn
	for t := w; t < tasks; t += g.workers {
		fn(t)
	}
}

// worker is the persistent goroutine body for workers 1..workers-1.
func (g *Gang) worker(w int) {
	seen := uint64(0)
	for {
		e := g.epoch.Load()
		for e == seen {
			// Spin with yields first: on a busy simulation the next
			// epoch arrives within a few scheduler quanta.
			for i := 0; i < 64 && e == seen; i++ {
				runtime.Gosched()
				e = g.epoch.Load()
			}
			if e != seen {
				break
			}
			// Park. The parked store precedes the epoch re-check, so
			// either we see the new epoch here or Run sees parked=true
			// and sends a token.
			g.parked[w].Store(true)
			if e = g.epoch.Load(); e == seen {
				<-g.wake[w]
				e = g.epoch.Load()
			}
			g.parked[w].Store(false)
		}
		if e == closeEpoch {
			return
		}
		seen = e
		g.serve(w) // zero iterations when w >= tasks, but still joins the barrier
	}
}

// Close releases the gang's goroutines. The gang must be idle (no Run
// in progress). Close is idempotent; Run after Close panics.
func (g *Gang) Close() {
	if g.closed {
		return
	}
	g.closed = true
	if g.workers == 1 {
		return
	}
	g.epoch.Store(closeEpoch)
	for w := 1; w < g.workers; w++ {
		select {
		case g.wake[w] <- struct{}{}:
		default:
		}
	}
}
