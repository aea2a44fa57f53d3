package noc

import (
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(nil, DefaultSimConfig()); err == nil {
		t.Error("nil fault map should be rejected")
	}
	fm := fault.NewMap(geom.NewGrid(4, 4))
	bad := DefaultSimConfig()
	bad.FIFODepth = 0
	if _, err := NewSim(fm, bad); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestKillRouterMidFlight(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	// A stream of packets crossing (1,0) on the XY row path.
	for i := 0; i < 6; i++ {
		if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, uint32(i), 7); err != nil {
			t.Fatal(err)
		}
		s.Step() // drain the injection FIFO as we go
	}
	dropped := s.KillRouter(geom.C(1, 0))
	if s.Stats().RoutersKilled != 1 {
		t.Errorf("RoutersKilled = %d, want 1", s.Stats().RoutersKilled)
	}
	// Killing again is a no-op.
	if s.KillRouter(geom.C(1, 0)) != 0 {
		t.Error("second KillRouter should drop nothing")
	}
	if s.Stats().RoutersKilled != 1 {
		t.Error("second KillRouter should not count")
	}
	// The network must still drain — remaining packets are dropped at
	// the dead router, never stuck.
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatalf("network did not drain after kill: %v", err)
	}
	st := s.Stats()
	if st.Delivered+st.Dropped != st.Injected {
		t.Errorf("accounting broken: %+v (killed dropped %d)", st, dropped)
	}
	if st.Dropped == 0 {
		t.Error("expected drops from the killed router")
	}
	// New packets routed into the dead tile are dropped, not wedged.
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(1, 0), Request, 99, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatalf("drain after posthumous inject: %v", err)
	}
}

func TestLinkDownBackpressure(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	s.SetLinkDown(geom.C(1, 0), geom.East, true)
	down := func(c geom.Coord, d geom.Dir) bool { return s.linkDown[s.grid.Index(c)*s.np+int(d)] }
	if !down(geom.C(1, 0), geom.East) || !down(geom.C(2, 0), geom.West) {
		t.Fatal("link-down must cover both endpoints")
	}
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, 1, 7); err != nil {
		t.Fatal(err)
	}
	for range 200 {
		s.Step()
	}
	if s.Stats().Delivered != 0 {
		t.Fatal("packet crossed a dead link")
	}
	if s.Stats().Dropped != 0 {
		t.Fatal("down links must backpressure, not drop")
	}
	s.SetLinkDown(geom.C(1, 0), geom.East, false)
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", s.Stats().Delivered)
	}
}

func TestRunUntilDrainedReportsCongestion(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	s.SetLinkDown(geom.C(1, 0), geom.East, true)
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, 1, 7); err != nil {
		t.Fatal(err)
	}
	err := s.RunUntilDrained(50)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "queued") || !strings.Contains(msg, "in flight") {
		t.Errorf("error lacks congestion detail: %v", err)
	}
	if !strings.Contains(msg, "(1,0)") {
		t.Errorf("error should name the stuck router: %v", err)
	}
}

func TestForwardPreservesIdentity(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	var got []Packet
	s.OnDeliver = func(p Packet) { got = append(got, p) }
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(1, 1), Request, 42, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	// Relay the delivered packet onward, as the machine's kernel layer
	// does for detours: identity (ID, Src, Tag, Payload) is preserved.
	if err := s.Forward(YX, geom.C(1, 1), geom.C(3, 3), got[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("forwarded packet not delivered")
	}
	p := got[1]
	if p.Src != geom.C(0, 0) || p.Dst != geom.C(3, 3) || p.Tag != 42 || p.Payload != 0xbeef || p.ID != got[0].ID {
		t.Errorf("forwarded packet lost identity: %+v", p)
	}
	if s.Stats().Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", s.Stats().Forwarded)
	}
	// A source outside the grid has no routing record and no requester
	// to answer; it is rejected.
	stray := got[0]
	stray.Src = geom.C(-1, 0)
	if err := s.Forward(XY, geom.C(1, 1), geom.C(3, 3), stray); err == nil {
		t.Error("forward with an out-of-grid source should fail")
	}
	// Forwarding at a faulty tile is rejected.
	s.KillRouter(geom.C(2, 2))
	if err := s.Forward(XY, geom.C(2, 2), geom.C(3, 3), got[0]); err == nil {
		t.Error("forward at a dead router should fail")
	}
}

func TestCorruptPayload(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	s := newSim(t, fm)
	if s.CorruptPayload(geom.C(1, 0), 0xFF) {
		t.Error("corrupting an idle tile should miss")
	}
	s.SetLinkDown(geom.C(1, 0), geom.East, true)
	if _, err := s.Inject(XY, geom.C(0, 0), geom.C(3, 0), Request, 1, 0x00); err != nil {
		t.Fatal(err)
	}
	// The packet parks in (1,0) behind the dead link.
	for range 20 {
		s.Step()
	}
	if !s.CorruptPayload(geom.C(1, 0), 0xFF) {
		t.Fatal("expected to hit the parked packet")
	}
	if s.Stats().BitErrors != 1 {
		t.Errorf("BitErrors = %d, want 1", s.Stats().BitErrors)
	}
	s.SetLinkDown(geom.C(1, 0), geom.East, false)
	var got []Packet
	s.OnDeliver = func(p Packet) { got = append(got, p) }
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != 0xFF {
		t.Errorf("delivered = %+v, want payload 0xFF", got)
	}
}
