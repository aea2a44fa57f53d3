package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// checkArena asserts the packet store's bookkeeping against a full
// scan of a *Sim engine (other engines are skipped): every handle is
// either queued in exactly one FIFO or flying in exactly one wheel
// bucket, or else free exactly once; the packet a handle names belongs
// to the network holding it; and len(pkts)-len(free), the live count
// Drained reads, equals the packets found queued or flying.
func checkArena(t *testing.T, e engine) {
	t.Helper()
	s, ok := e.(*Sim)
	if !ok {
		return
	}
	seen := make([]int, len(s.pkts))
	use := func(h int32, net Network, where string) {
		if h < 0 || int(h) >= len(s.pkts) {
			t.Fatalf("cycle %d: handle %d %s is outside the %d-packet arena", s.Cycle(), h, where, len(s.pkts))
		}
		if Network(s.pkts[h].net) != net {
			t.Fatalf("cycle %d: handle %d %s names a %v packet on %v", s.Cycle(), h, where, Network(s.pkts[h].net), net)
		}
		seen[h]++
	}
	live := 0
	for _, mn := range s.nets {
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			for p := range r.in {
				q := &r.in[p]
				for k := 0; k < q.len(); k++ {
					use(q.buf[q.at(k)], mn.net, "in a FIFO")
					live++
				}
			}
		}
		for _, bucket := range mn.wheel {
			for _, f := range bucket {
				use(f.h, mn.net, "in the wheel")
				live++
			}
		}
	}
	for _, h := range s.free {
		if h < 0 || int(h) >= len(s.pkts) {
			t.Fatalf("cycle %d: free handle %d is outside the %d-packet arena", s.Cycle(), h, len(s.pkts))
		}
		seen[h]++
	}
	for h, n := range seen {
		if n != 1 {
			t.Fatalf("cycle %d: handle %d is held %d times across FIFOs, wheel and free list, want once",
				s.Cycle(), h, n)
		}
	}
	if live != len(s.pkts)-len(s.free) {
		t.Fatalf("cycle %d: %d packets queued or flying, arena %d - free %d",
			s.Cycle(), live, len(s.pkts), len(s.free))
	}
}

// runArenaScenario runs s on a fresh *Sim with checkArena after every
// step, on the original and (when s.forkAt is set) on the fork, and
// requires every handle of the engine left at the end to be free once
// the network has drained. It returns the run's statistics and
// delivered packets.
func runArenaScenario(t *testing.T, s scenario) (SimStats, []Packet) {
	t.Helper()
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	sim, err := NewSim(fm, s.simConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.RetainDelivered = true
	var last *Sim
	inner := s.checkLiveFn
	s.checkLiveFn = func(t *testing.T, e engine) {
		if inner != nil {
			inner(t, e)
		}
		checkArena(t, e)
		last = e.(*Sim)
	}
	st, pkts, _ := runScenario(t, s, sim)
	if len(last.free) != len(last.pkts) || len(last.pkts) == 0 {
		t.Fatalf("drained with %d of %d handles free", len(last.free), len(last.pkts))
	}
	return st, pkts
}

// TestPacketStoreHandles cross-checks the packet arena against full
// scans after every step of a chaos run with a mid-run Fork: runtime
// kills (queued and in-flight drops), link flaps, bit errors through
// CorruptPayload, and relay Forwards are where a handle could leak, be
// freed twice or be shared between two queues.
func TestPacketStoreHandles(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 616,
		cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 3,
		forkAt: 250,
	}
	st, _ := runArenaScenario(t, s)
	if st.RoutersKilled == 0 || st.DroppedQueued == 0 || st.Forwarded == 0 || st.BitErrors == 0 {
		t.Fatalf("chaos scenario exercised too little: %+v", st)
	}
}

// TestPacketStoreHotKill runs the idle-gap scenario under the arena
// check: its hot kill lands with packets both queued in the dead router
// and flying toward it, and the fork is taken with flights still in the
// wheel.
func TestPacketStoreHotKill(t *testing.T) {
	st, _ := runArenaScenario(t, idleGapScenario(geom.NewGrid(8, 8), 707))
	if st.DroppedQueued == 0 || st.DroppedInFlight == 0 || st.Forwarded == 0 {
		t.Fatalf("hot kill did not hit queued and in-flight traffic: %+v", st)
	}
}

// TestEngineDifferentialRespond answers every delivered request from
// inside OnDeliver with two injected responses: the callback runs in
// the middle of traversal, where it reuses the handle just freed and
// grows the arena. The engine, forked mid-run, must match the
// reference engine, with the arena consistent after every step.
func TestEngineDifferentialRespond(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 919,
		cycles: 500, injectProb: 0.9, chaos: true, forwardMod: 4,
		forkAt: 200, respond: true, checkLiveFn: checkArena,
	}
	diffEngines(t, s)
	_, pkts := runArenaScenario(t, s)
	responses := 0
	for _, p := range pkts {
		if p.Kind == Response {
			responses++
		}
	}
	if responses == 0 {
		t.Fatal("no response injected from OnDeliver was delivered")
	}
}
