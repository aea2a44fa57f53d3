package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// checkArena asserts the packet store's bookkeeping against a full
// scan of a *Sim engine (other engines are skipped): the chunks cover
// exactly the handles handed out; every handle is either queued in
// exactly one FIFO or flying in exactly one wheel bucket, or else on
// the free stack exactly once; the packet a handle names belongs to the
// network holding it; and the live count Drained reads equals the
// packets found queued or flying.
func checkArena(t *testing.T, e engine) {
	t.Helper()
	s, ok := e.(*Sim)
	if !ok {
		return
	}
	ps := &s.store
	n := int(ps.n)
	if want := (n + chunkLen - 1) / chunkLen; len(ps.chunks) != want {
		t.Fatalf("cycle %d: %d chunks hold %d handles, want %d", s.Cycle(), len(ps.chunks), n, want)
	}
	seen := make([]int, n)
	use := func(h int32, net Network, where string) {
		if h < 0 || int(h) >= n {
			t.Fatalf("cycle %d: handle %d %s is outside the %d-handle store", s.Cycle(), h, where, n)
		}
		if got := Network(ps.body(h).net); got != net {
			t.Fatalf("cycle %d: handle %d %s names a %v packet on %v", s.Cycle(), h, where, got, net)
		}
		seen[h]++
	}
	live := 0
	for _, mn := range s.nets {
		for slot, q := range mn.q {
			for k := 0; k < int(q.n); k++ {
				use(mn.fifo[slot*mn.depth+(int(q.head)+k)%mn.depth], mn.net, "in a FIFO")
				live++
			}
		}
		for _, bucket := range mn.wheel {
			for _, f := range bucket {
				use(f.h, mn.net, "in the wheel")
				live++
			}
		}
	}
	free := 0
	for h := ps.free; h >= 0; h = ps.rt(h).hops {
		if int(h) >= n || free > n {
			t.Fatalf("cycle %d: free stack reaches handle %d after %d of %d handles", s.Cycle(), h, free, n)
		}
		seen[h]++
		free++
	}
	for h, k := range seen {
		if k != 1 {
			t.Fatalf("cycle %d: handle %d is held %d times across FIFOs, wheel and free stack, want once",
				s.Cycle(), h, k)
		}
	}
	if live != ps.live || live+free != n {
		t.Fatalf("cycle %d: %d packets queued or flying and %d free, live count %d of %d handles",
			s.Cycle(), live, free, ps.live, n)
	}
}

// runArenaScenario runs s on a fresh *Sim with checkArena after every
// step, and requires every handle to be free once the network has
// drained. It returns the run's statistics, its delivered packets and
// the handles the store handed out.
func runArenaScenario(t *testing.T, s scenario) (SimStats, []Packet, int) {
	t.Helper()
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	sim, err := NewSim(fm, s.simConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner := s.checkLiveFn
	s.checkLiveFn = func(t *testing.T, e engine) {
		if inner != nil {
			inner(t, e)
		}
		checkArena(t, e)
	}
	st, pkts, _ := runScenario(t, s, sim)
	if sim.store.live != 0 || sim.store.n == 0 {
		t.Fatalf("drained with %d of %d handles live", sim.store.live, sim.store.n)
	}
	return st, pkts, int(sim.store.n)
}

// TestPacketStoreHandles cross-checks the packet store against full
// scans after every step of a chaos run: runtime kills (queued and
// in-flight drops), link flaps, bit errors through CorruptPayload, and
// relay Forwards are where a handle could leak, be
// freed twice or be shared between two queues.
func TestPacketStoreHandles(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 616,
		cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 3,
	}
	st, _, _ := runArenaScenario(t, s)
	if st.RoutersKilled == 0 || st.DroppedQueued == 0 || st.Forwarded == 0 || st.BitErrors == 0 {
		t.Fatalf("chaos scenario exercised too little: %+v", st)
	}
}

// TestPacketStoreHotKill runs the idle-gap scenario under the store
// check: its hot kill lands with packets both queued in the dead router
// and flying toward it.
func TestPacketStoreHotKill(t *testing.T) {
	st, _, _ := runArenaScenario(t, idleGapScenario(geom.NewGrid(8, 8), 707))
	if st.DroppedQueued == 0 || st.DroppedInFlight == 0 || st.Forwarded == 0 {
		t.Fatalf("hot kill did not hit queued and in-flight traffic: %+v", st)
	}
}

// TestEngineDifferentialRespond answers every delivered request from
// inside OnDeliver with two injected responses: the callback runs in
// the middle of traversal, where it reuses the handle just freed and
// grows the store. The engine must match the reference engine, with
// the store consistent after every step.
func TestEngineDifferentialRespond(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 919,
		cycles: 500, injectProb: 0.9, chaos: true, forwardMod: 4,
		respond: true, checkLiveFn: checkArena,
	}
	diffEngines(t, s)
	_, pkts, _ := runArenaScenario(t, s)
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

// TestPacketStoreChunks loads the network until the store spans
// several chunks, so handles are handed out across chunk boundaries and
// freed handles are reused while later chunks fill. It runs under the
// store check and against the reference engine.
func TestPacketStoreChunks(t *testing.T) {
	s := scenario{
		grid: geom.NewGrid(12, 12), faults: 2, seed: 818,
		cycles: 300, injectProb: 1, injectN: 8, chaos: true, forwardMod: 3,
		respond: true,
	}
	diffEngines(t, s)
	if _, _, n := runArenaScenario(t, s); n <= 2*chunkLen {
		t.Fatalf("store handed out %d handles, want more than two chunks (%d)", n, 2*chunkLen)
	}
}
