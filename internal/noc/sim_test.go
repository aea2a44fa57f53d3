package noc

import (
	"errors"
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func newSim(t *testing.T, fm *fault.Map) *Sim {
	t.Helper()
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimSinglePacket(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s := newSim(t, fm)
	delivered := recordDeliveries(s, false)
	src, dst := geom.C(0, 0), geom.C(3, 2)
	id, err := s.Inject(XY, src, dst, Request, 1, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	got := *delivered
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	p := got[0]
	if p.ID != id || p.Src != src || p.Dst != dst || p.Payload != 0xdead {
		t.Errorf("packet = %+v", p)
	}
	if p.Hops != src.Manhattan(dst) {
		t.Errorf("hops = %d, want %d", p.Hops, src.Manhattan(dst))
	}
	if p.Latency() <= 0 {
		t.Errorf("latency = %d", p.Latency())
	}
	st := s.Stats()
	if st.Injected != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimSelfDelivery(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	delivered := recordDeliveries(s, false)
	if _, err := s.Inject(XY, geom.C(1, 1), geom.C(1, 1), Request, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(100); err != nil {
		t.Fatal(err)
	}
	if got := *delivered; len(got) != 1 || got[0].Hops != 0 {
		t.Errorf("self delivery = %+v", got)
	}
}

func TestSimInjectionBackpressure(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	src := geom.C(0, 0)
	full := 0
	for i := 0; i < 10; i++ {
		if _, err := s.Inject(XY, src, geom.C(3, 3), Request, 0, 0); err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("unexpected error: %v", err)
			}
			full++
		}
	}
	if full != 10-DefaultSimConfig().FIFODepth {
		t.Errorf("backpressured %d of 10 injects, want %d", full, 10-DefaultSimConfig().FIFODepth)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
}

func TestSimInjectErrors(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(1, 1))
	s := newSim(t, fm)
	if _, err := s.Inject(XY, geom.C(1, 1), geom.C(0, 0), Request, 0, 0); err == nil {
		t.Error("inject from faulty tile accepted")
	}
	if _, err := s.Inject(XY, geom.C(9, 9), geom.C(0, 0), Request, 0, 0); err == nil {
		t.Error("inject from off-grid accepted")
	}
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(9, 9), Request, 0, 0); err == nil {
		t.Error("inject to off-grid accepted")
	}
}

func TestSimConfigValidation(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	if _, err := NewSim(fm, SimConfig{FIFODepth: 0, LinkLatency: 1}); err == nil {
		t.Error("zero FIFO depth accepted")
	}
	if _, err := NewSim(fm, SimConfig{FIFODepth: 4, LinkLatency: 0}); err == nil {
		t.Error("zero link latency accepted")
	}
}

// TestSimGridSideCap: a routing record holds coordinates as int16, so
// the longest accepted side is 1<<15, and a packet at its far end
// routes and delivers with its endpoints intact.
func TestSimGridSideCap(t *testing.T) {
	if _, err := NewSim(fault.NewMap(geom.NewGrid(1<<15+1, 1)), DefaultSimConfig()); err == nil {
		t.Fatalf("grid side %d accepted", 1<<15+1)
	}
	s, err := NewSim(fault.NewMap(geom.NewGrid(1, 1<<15)), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	delivered := recordDeliveries(s, false)
	src, dst := geom.C(0, 1<<15-1), geom.C(0, 1<<15-3)
	if _, err := s.Inject(YX, src, dst, Request, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(100); err != nil {
		t.Fatal(err)
	}
	if got := *delivered; len(got) != 1 || got[0].Src != src || got[0].Dst != dst || got[0].Hops != 2 {
		t.Fatalf("delivered %+v", got)
	}
}

// TestSimInOrderPerPair: all packets between one src-dst pair on one
// network arrive in injection order — the packet-consistency guarantee
// the kernel relies on when pinning a pair to a single network.
func TestSimInOrderPerPair(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s := newSim(t, fm)
	delivered := recordDeliveries(s, false)
	src, dst := geom.C(0, 0), geom.C(7, 7)
	sent := 0
	for sent < 50 {
		if _, err := s.Inject(XY, src, dst, Request, uint32(sent), uint64(sent)); err == nil {
			sent++
		}
		s.Step()
	}
	if err := s.RunUntilDrained(5000); err != nil {
		t.Fatal(err)
	}
	got := *delivered
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, p := range got {
		if p.Payload != uint64(i) {
			t.Fatalf("delivery %d carries payload %d — out of order", i, p.Payload)
		}
	}
}

// TestSimRandomTrafficDrains floods both networks with random traffic
// and verifies everything delivers: dimension-ordered routing on
// independent request networks cannot deadlock.
func TestSimRandomTrafficDrains(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s := newSim(t, fm)
	rng := rand.New(rand.NewSource(3))
	want := 0
	for i := 0; i < 400; i++ {
		src := geom.C(rng.Intn(8), rng.Intn(8))
		dst := geom.C(rng.Intn(8), rng.Intn(8))
		net := Network(rng.Intn(2))
		if _, err := s.Inject(net, src, dst, Request, uint32(i), 0); err == nil {
			want++
		}
		s.Step()
	}
	if err := s.RunUntilDrained(20000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Delivered != want {
		t.Errorf("delivered %d of %d", st.Delivered, want)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d packets on a healthy array", st.Dropped)
	}
	if st.TotalHops <= 0 || st.AvgLatency() <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestSimRequestResponse exercises the paper's pairing: requests on one
// network, responses on the complement, retracing the same tiles.
func TestSimRequestResponse(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s := newSim(t, fm)
	var delivered []Packet
	responded := 0
	s.OnDeliver = func(p Packet) {
		delivered = append(delivered, p)
		if p.Kind == Request {
			// The destination tile answers on the complementary network.
			if _, err := s.Inject(p.Net.Complement(), p.Dst, p.Src, Response, p.Tag, p.Payload+1); err != nil {
				t.Errorf("response injection failed: %v", err)
			}
		} else {
			responded++
		}
	}
	src, dst := geom.C(1, 2), geom.C(6, 5)
	if _, err := s.Inject(XY, src, dst, Request, 42, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(2000); err != nil {
		t.Fatal(err)
	}
	if responded != 1 {
		t.Fatalf("responses delivered = %d", responded)
	}
	var req, resp *Packet
	for i := range delivered {
		p := &delivered[i]
		if p.Kind == Request {
			req = p
		} else {
			resp = p
		}
	}
	if req == nil || resp == nil {
		t.Fatal("missing request or response")
	}
	if resp.Net != req.Net.Complement() {
		t.Errorf("response network = %v, want complement of %v", resp.Net, req.Net)
	}
	if resp.Tag != req.Tag || resp.Payload != req.Payload+1 {
		t.Errorf("response mismatch: %+v vs %+v", resp, req)
	}
	if resp.Hops != req.Hops {
		t.Errorf("response hops %d != request hops %d (must retrace)", resp.Hops, req.Hops)
	}
}

// TestSimRoutesAroundFaultsViaKernel: with a fault map and the kernel's
// decisions, traffic flows without a single drop.
func TestSimRoutesAroundFaultsViaKernel(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	fm.MarkFaulty(geom.C(3, 0))
	fm.MarkFaulty(geom.C(5, 5))
	k := NewKernel(MeshTopology(fm.Grid()), fm)
	s := newSim(t, fm)
	rng := rand.New(rand.NewSource(9))
	healthy := fm.HealthyCoords()
	sent := 0
	for i := 0; i < 200; i++ {
		src := healthy[rng.Intn(len(healthy))]
		dst := healthy[rng.Intn(len(healthy))]
		if src == dst {
			continue
		}
		d, err := k.Decide(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Reachable || d.Via != nil {
			continue // skip detour pairs in this direct-traffic test
		}
		if _, err := s.Inject(d.Request, src, dst, Request, uint32(i), 0); err == nil {
			sent++
		}
		s.Step()
	}
	if err := s.RunUntilDrained(20000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Errorf("kernel-routed traffic dropped %d packets", st.Dropped)
	}
	if st.Delivered != sent {
		t.Errorf("delivered %d of %d", st.Delivered, sent)
	}
}

// TestSimDropsIntoFaultyTile: routing *without* consulting the kernel
// loses packets that cross faults — demonstrating why the fault map
// matters.
func TestSimDropsIntoFaultyTile(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	fm.MarkFaulty(geom.C(2, 0))
	s := newSim(t, fm)
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(4, 0), Request, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v, want 1 drop", st)
	}
}

// TestSimFIFONeverOverflows is the credit-flow invariant: with minimal
// buffers and heavy congestion, no FIFO exceeds its depth.
func TestSimFIFONeverOverflows(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(6, 6))
	s, err := NewSim(fm, SimConfig{FIFODepth: 1, LinkLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Hotspot traffic: everyone sends to one corner.
	hot := geom.C(5, 5)
	for i := 0; i < 300; i++ {
		src := geom.C(rng.Intn(6), rng.Intn(6))
		s.Inject(XY, src, hot, Request, uint32(i), 0) // backpressure errors are fine
		s.Step()
		for _, mn := range s.nets {
			for slot, q := range mn.q {
				if q.n > 1 {
					t.Fatalf("FIFO at %v port %d holds %d > depth 1", s.at[slot/s.np], slot%s.np, q.n)
				}
			}
		}
	}
	if err := s.RunUntilDrained(50000); err != nil {
		t.Fatal(err)
	}
}

func TestPacketAccessors(t *testing.T) {
	p := Packet{ID: 3, Kind: Response, Net: YX, Src: geom.C(1, 1), Dst: geom.C(2, 2), InjectedAt: 5, DeliveredAt: 17}
	if p.Latency() != 12 {
		t.Errorf("latency = %d", p.Latency())
	}
	if p.String() == "" || Request.String() != "request" || Response.String() != "response" {
		t.Error("string forms wrong")
	}
	var empty SimStats
	if empty.AvgLatency() != 0 {
		t.Error("empty stats should average to zero")
	}
}

func TestLinkSpecBudget(t *testing.T) {
	// wires is the escape wire count an edge supports; a bus plan fits
	// when its bus wires do not exceed it.
	wires := func(l LinkSpec) int { return int(l.EdgeLengthMM * l.WiresPerMM) }
	l := DefaultLinkSpec(3.25)
	if need := l.Buses * l.PacketBits; need > wires(l) {
		t.Fatalf("prototype link plan infeasible: %d bus wires, %d escape wires", need, wires(l))
	}
	// 3.25 mm edge x 400 wires/mm = 1300 wires >= 4x100 bus bits.
	if w := wires(l); w != 1300 {
		t.Errorf("wires = %d, want 1300", w)
	}
	// A 0.5 mm edge cannot escape four 100-bit buses.
	if bad := DefaultLinkSpec(0.5); bad.Buses*bad.PacketBits <= wires(bad) {
		t.Error("infeasible escape accepted")
	}
}

func TestSystemBandwidthMatchesTable1(t *testing.T) {
	l := DefaultLinkSpec(3.25)
	bw := ComputeBandwidth(geom.NewGrid(32, 32), l)
	// 1024 tiles x 4 buses x 8 B x 300 MHz = 9.83 TB/s.
	if bw.AggregateBps < 9.8e12 || bw.AggregateBps > 9.9e12 {
		t.Errorf("aggregate = %.3g B/s, want ~9.83 TB/s", bw.AggregateBps)
	}
	if bw.BisectionBps <= 0 || bw.BisectionBps >= bw.AggregateBps {
		t.Errorf("bisection = %.3g B/s implausible", bw.BisectionBps)
	}
}

// --- odd-even turn model (future-work ablation) ---

func TestOddEvenTurnRules(t *testing.T) {
	// EN turn forbidden in even columns, allowed in odd.
	if oddEvenTurnAllowed(2, geom.East, geom.North) {
		t.Error("EN turn allowed in even column")
	}
	if !oddEvenTurnAllowed(3, geom.East, geom.North) {
		t.Error("EN turn forbidden in odd column")
	}
	// NW turn forbidden in odd columns, allowed in even.
	if oddEvenTurnAllowed(3, geom.North, geom.West) {
		t.Error("NW turn allowed in odd column")
	}
	if !oddEvenTurnAllowed(2, geom.North, geom.West) {
		t.Error("NW turn forbidden in even column")
	}
	// Straight always; U-turn never.
	if !oddEvenTurnAllowed(0, geom.East, geom.East) {
		t.Error("straight move rejected")
	}
	if oddEvenTurnAllowed(1, geom.East, geom.West) {
		t.Error("U-turn allowed")
	}
}

func TestOddEvenFullConnectivityHealthy(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	st := OddEvenAllPairs(fm)
	if st.Disconnected != 0 {
		t.Errorf("healthy array: %d disconnected odd-even pairs", st.Disconnected)
	}
	if st.Pairs != 64*63 {
		t.Errorf("pairs = %d", st.Pairs)
	}
	if st.Pct() != 0 {
		t.Errorf("pct = %v", st.Pct())
	}
}

// TestOddEvenBeatsDualDoR: adaptive odd-even routing disconnects no
// more pairs than the dual-DoR scheme on the same fault maps (the
// reason the paper lists it as future work).
func TestOddEvenBeatsDualDoR(t *testing.T) {
	g := geom.NewGrid(10, 10)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		fm := fault.Random(g, 6, rng)
		dor := NewAnalyzer(fm).AllPairs()
		oe := OddEvenAllPairs(fm)
		if oe.Disconnected > dor.DisconnectedDual {
			t.Errorf("trial %d: odd-even %d > dual-DoR %d disconnections\n%s",
				trial, oe.Disconnected, dor.DisconnectedDual, fm)
		}
	}
}

func TestOddEvenEndpointsMustBeHealthy(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(1, 1))
	if OddEvenReachable(fm, geom.C(1, 1), geom.C(0, 0)) {
		t.Error("faulty source reachable")
	}
	if OddEvenReachable(fm, geom.C(0, 0), geom.C(1, 1)) {
		t.Error("faulty destination reachable")
	}
	if !OddEvenReachable(fm, geom.C(0, 0), geom.C(0, 0)) {
		t.Error("healthy self-pair unreachable")
	}
}

// TestSimNoStarvationUnderCrossTraffic: round-robin switch allocation
// must keep serving a victim flow that shares a router with two
// aggressive cross flows — no input port starves.
func TestSimNoStarvationUnderCrossTraffic(t *testing.T) {
	const victimTag = 0xF0
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s := newSim(t, fm)
	var victims []Packet
	s.OnDeliver = func(p Packet) {
		if p.Tag == victimTag {
			victims = append(victims, p)
		}
	}
	const cycles = 2000
	for cyc := 0; cyc < cycles; cyc++ {
		// Aggressors: two continuous flows crossing router (4,4).
		s.Inject(XY, geom.C(4, 0), geom.C(4, 7), Request, 1, 0)
		s.Inject(XY, geom.C(0, 4), geom.C(7, 4), Request, 2, 0)
		// Victim: a slower flow through the same router.
		if cyc%8 == 0 {
			s.Inject(XY, geom.C(2, 4), geom.C(6, 4), Request, victimTag, 0)
		}
		s.Step()
	}
	if len(victims) == 0 {
		t.Fatal("victim flow starved under cross traffic")
	}
	if err := s.RunUntilDrained(100000); err != nil {
		t.Fatal(err)
	}
	// Every victim packet eventually delivers with bounded latency.
	var worst int64
	for _, p := range victims {
		worst = max(worst, p.Latency())
	}
	if len(victims) != cycles/8 {
		t.Errorf("victim delivered %d of %d", len(victims), cycles/8)
	}
	if worst > 500 {
		t.Errorf("worst victim latency %d cycles — effective starvation", worst)
	}
}
