package noc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// portList lists a routing decision's ports, the preferred one first
// and the rest ascending.
func portList(p Ports) []int {
	if p.mask == 0 {
		return nil
	}
	out := []int{p.First()}
	for m := p.mask &^ (1 << p.first); m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros16(m))
	}
	return out
}

func TestDoRPolicyMatchesNextHop(t *testing.T) {
	f := func(sx, sy, dx, dy uint8, netSel bool) bool {
		cur := geom.C(int(sx)%8, int(sy)%8)
		dst := geom.C(int(dx)%8, int(dy)%8)
		net := XY
		if netSel {
			net = YX
		}
		c := portList(DoRPolicy{}.Route(net, geom.Coord{}, dst, cur, portLocal))
		if len(c) != 1 {
			return false
		}
		d, ok := NextHop(net, cur, dst)
		if !ok {
			return c[0] == portLocal
		}
		return c[0] == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOddEvenCandidatesMinimalAndLegal: every candidate move is
// productive (minimal) and the implied turn sequence stays legal —
// verified by walking random packets hop by hop, always taking the
// first candidate, and checking arrival within the minimal hop count.
func TestOddEvenCandidatesMinimalAndLegal(t *testing.T) {
	pol := OddEvenPolicy{}
	f := func(sx, sy, dx, dy uint8, greedy bool) bool {
		src := geom.C(int(sx)%16, int(sy)%16)
		dst := geom.C(int(dx)%16, int(dy)%16)
		cur := src
		prevDir := -1
		for hops := 0; ; hops++ {
			if hops > src.Manhattan(dst) {
				return false // non-minimal path taken
			}
			cands := portList(pol.Route(XY, src, dst, cur, portLocal))
			if len(cands) == 0 {
				return false // ROUTE must never strand a packet
			}
			pick := cands[0]
			if !greedy && len(cands) > 1 {
				pick = cands[1]
			}
			if pick == portLocal {
				return cur == dst
			}
			// Check the turn is legal under the odd-even rules.
			if prevDir >= 0 && !oddEvenTurnAllowed(cur.X, geom.Dir(prevDir), geom.Dir(pick)) {
				return false
			}
			// Productive move only.
			next := cur.Step(geom.Dir(pick))
			if next.Manhattan(dst) != cur.Manhattan(dst)-1 {
				return false
			}
			cur = next
			prevDir = pick
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestOddEvenPacketSimDelivers: heavy random traffic under the
// adaptive policy drains without deadlock and delivers everything.
func TestOddEvenPacketSimDelivers(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(8, 8))
	s, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Policy = OddEvenPolicy{}
	rng := rand.New(rand.NewSource(21))
	sent := 0
	for i := 0; i < 600; i++ {
		src := geom.C(rng.Intn(8), rng.Intn(8))
		dst := geom.C(rng.Intn(8), rng.Intn(8))
		if _, err := s.Inject(Network(i%2), src, dst, Request, uint32(i), 0); err == nil {
			sent++
		}
		s.Step()
	}
	if err := s.RunUntilDrained(30000); err != nil {
		t.Fatalf("adaptive network did not drain: %v", err)
	}
	st := s.Stats()
	if st.Delivered != sent || st.Dropped != 0 {
		t.Errorf("delivered %d of %d, dropped %d", st.Delivered, sent, st.Dropped)
	}
}

// TestOddEvenAdaptiveBeatsDoRUnderHotspot: with a congested column,
// adaptivity spreads traffic and cuts latency versus strict DoR.
func TestOddEvenAdaptiveBeatsDoRUnderHotspot(t *testing.T) {
	run := func(policy RoutingPolicy) float64 {
		fm := fault.NewMap(geom.NewGrid(8, 8))
		s, err := NewSim(fm, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Policy = policy
		// Transpose traffic: every tile sends (x,y) -> (y,x) in bursts
		// — all XY routes turn on the diagonal, a classic DoR killer.
		tag := uint32(0)
		for round := 0; round < 12; round++ {
			fm.Grid().All(func(src geom.Coord) {
				dst := geom.C(src.Y, src.X)
				if src == dst {
					return
				}
				tag++
				s.Inject(XY, src, dst, Request, tag, 0) // full FIFOs just skip
			})
			for range 2 {
				s.Step()
			}
		}
		if err := s.RunUntilDrained(60000); err != nil {
			t.Fatal(err)
		}
		return s.Stats().AvgLatency()
	}
	dor := run(DoRPolicy{})
	oe := run(OddEvenPolicy{})
	if oe >= dor {
		t.Errorf("odd-even latency %.1f not below DoR %.1f under transpose traffic", oe, dor)
	}
}

// TestOddEvenMatchesConnectivityOracle: a packet routed adaptively on
// a faulty map delivers whenever the BFS oracle says the pair is
// odd-even-reachable *minimally*... minimal-adaptive is weaker than
// the non-minimal oracle, so we assert one direction only: if the
// packet delivers, the oracle must agree it is reachable.
func TestOddEvenMatchesConnectivityOracle(t *testing.T) {
	g := geom.NewGrid(10, 10)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		fm := fault.Random(g, 8, rng)
		s, err := NewSim(fm, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Policy = OddEvenPolicy{}
		healthy := fm.HealthyCoords()
		type pair struct{ s, d geom.Coord }
		var sentPairs []pair
		for i := 0; i < 40; i++ {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			if src == dst {
				continue
			}
			if _, err := s.Inject(XY, src, dst, Request, uint32(len(sentPairs)), 0); err == nil {
				sentPairs = append(sentPairs, pair{src, dst})
			}
			for range 3 {
				s.Step()
			}
		}
		delivered := recordDeliveries(s, false)
		_ = s.RunUntilDrained(20000)
		for _, p := range *delivered {
			if !OddEvenReachable(fm, p.Src, p.Dst) {
				t.Fatalf("delivered %v->%v but oracle says unreachable", p.Src, p.Dst)
			}
		}
	}
}
