package sim

import (
	"context"
	"testing"

	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// TestBackoffJitterBounds: jitter always lands in [0, span) and a
// non-positive span (RemoteTimeout 1, attempt 0 -> base/2 == 0)
// degrades to zero instead of dividing by it.
func TestBackoffJitterBounds(t *testing.T) {
	for span := int64(1); span <= 1<<20; span <<= 5 {
		for i := 0; i < 2000; i++ {
			j := backoffJitter(uint32(i*2654435761), int64(i)*37, geom.C(i%32, i/32%32), i%14, span)
			if j < 0 || j >= span {
				t.Fatalf("jitter %d outside [0, %d)", j, span)
			}
		}
	}
	if j := backoffJitter(1, 2, geom.C(3, 4), 5, 0); j != 0 {
		t.Fatalf("span 0 gave jitter %d", j)
	}
	if j := backoffJitter(1, 2, geom.C(3, 4), 5, -8); j != 0 {
		t.Fatalf("negative span gave jitter %d", j)
	}
}

// TestBackoffJitterSpreads: co-stalled cores — same cycle, same span,
// different tiles/lanes/tags — must not re-arm on the same deadline,
// or they re-collide at the dead router forever.
func TestBackoffJitterSpreads(t *testing.T) {
	const span = 1024
	seen := make(map[int64]bool)
	for lane := 0; lane < 14; lane++ {
		for x := 0; x < 8; x++ {
			seen[backoffJitter(uint32(0x2A|lane<<2), 500, geom.C(x, 3), lane, span)] = true
		}
	}
	if len(seen) < 56 { // 112 samples into 1024 buckets: collisions allowed, clumping not
		t.Fatalf("112 co-stalled ops spread over only %d distinct deadlines", len(seen))
	}
}

// TestBackoffJitterPure: the jitter is a function of the op's identity
// alone — no hidden RNG state — so replaying a machine cannot diverge.
func TestBackoffJitterPure(t *testing.T) {
	a := backoffJitter(0xBEEF, 12345, geom.C(7, 9), 3, 512)
	for i := 0; i < 100; i++ {
		if b := backoffJitter(0xBEEF, 12345, geom.C(7, 9), 3, 512); b != a {
			t.Fatalf("jitter not pure: %d then %d", a, b)
		}
	}
}

// TestRetryJitterKeepsDeterminism replays the flapped-link retry
// scenario twice on fresh machines: with hash-derived (not RNG-drawn)
// jitter, both runs must quiesce on the same cycle with identical
// degradation counters.
func TestRetryJitterKeepsDeterminism(t *testing.T) {
	run := func() (int64, DegradationReport, uint32) {
		cfg := smallConfig()
		m := newMachine(t, cfg, nil)
		m.RemoteTimeout = 60
		m.RemoteRetries = 5
		dst := geom.C(3, 0)
		addr := globalWindowAddr(cfg, dst)
		if err := m.WriteGlobal32(addr, 0x1234); err != nil {
			t.Fatal(err)
		}
		sched := inject.NewSchedule().FlapLink(geom.C(1, 0), geom.East, 0, 600)
		if err := m.AttachSchedule(sched); err != nil {
			t.Fatal(err)
		}
		c := startRemoteLoad(t, m, geom.C(0, 0), addr)
		if err := m.RunCtx(context.Background(), 20_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		if faults := m.Faults(); len(faults) > 0 {
			t.Fatalf("faults: %v", faults)
		}
		return m.Cycle(), m.Degradation(), c.Regs[2]
	}
	cyc1, rep1, v1 := run()
	cyc2, rep2, v2 := run()
	if v1 != 0x1234 || v2 != 0x1234 {
		t.Fatalf("loads returned %#x / %#x, want 0x1234", v1, v2)
	}
	if cyc1 != cyc2 {
		t.Fatalf("replay diverged: quiesced at cycle %d then %d", cyc1, cyc2)
	}
	if rep1.TimedOutOps != rep2.TimedOutOps || rep1.RetriedOps != rep2.RetriedOps {
		t.Fatalf("replay diverged: %+v vs %+v", rep1, rep2)
	}
	if rep1.RetriedOps == 0 {
		t.Fatal("scenario exercised no retries — jitter path not covered")
	}
}
