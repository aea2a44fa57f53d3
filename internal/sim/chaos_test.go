package sim

import (
	"context"
	"strings"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// globalWindowAddr returns the base global address of a tile's shared
// window.
func globalWindowAddr(cfg arch.Config, c geom.Coord) uint32 {
	amap := arch.NewAddressMap(cfg)
	return arch.GlobalBase + uint32(cfg.Grid().Index(c))*amap.GlobalWindowBytes()
}

// loadFromSource assembles a tiny program that loads one global word
// into r2 and halts, and starts it on core 0 of the given tile.
func startRemoteLoad(t *testing.T, m *Machine, at geom.Coord, addr uint32) *Core {
	t.Helper()
	prog := mustAssemble(t, `
	    la   r1, `+hex(addr)+`
	    lw   r2, 0(r1)
	    halt
	`)
	if err := m.LoadProgram(at, 0, prog); err != nil {
		t.Fatal(err)
	}
	return m.Tile(at).Cores[0]
}

func hex(v uint32) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = digits[v&0xF]
		v >>= 4
	}
	return "0x" + string(out)
}

// TestRemoteRetryOverFlappedLink blocks the only row path between a
// core and its target with a link-flap window: the first attempt times
// out, the retry (exponential backoff) lands after the link returns,
// and the load still completes with the right value.
func TestRemoteRetryOverFlappedLink(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	m.RemoteTimeout = 60
	m.RemoteRetries = 5

	dst := geom.C(3, 0)
	addr := globalWindowAddr(cfg, dst)
	if err := m.WriteGlobal32(addr, 0x1234); err != nil {
		t.Fatal(err)
	}
	// Both DoR networks use the same row-0 east links for (0,0)->(3,0);
	// flapping (1,0).E severs them until cycle 600.
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
	if c.Regs[2] != 0x1234 {
		t.Errorf("loaded %#x, want 0x1234", c.Regs[2])
	}
	rep := m.Degradation()
	if rep.TimedOutOps == 0 || rep.RetriedOps == 0 {
		t.Errorf("expected timeouts and retries, got %+v", rep)
	}
	if rep.LinkFlaps != 1 {
		t.Errorf("LinkFlaps = %d, want 1", rep.LinkFlaps)
	}
	if !rep.Degraded() {
		t.Error("report should read as degraded")
	}
	if m.Net().Stats().Timeouts == 0 {
		t.Error("network stats should count the timeout")
	}
}

// TestRemoteRetriesExhaustedDegrade severs the path permanently: the
// core must fault with a structured error — never hang — and the
// destination must be marked degraded.
func TestRemoteRetriesExhaustedDegrade(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	m.RemoteTimeout = 30
	m.RemoteRetries = 2

	dst := geom.C(3, 0)
	addr := globalWindowAddr(cfg, dst)
	sched := inject.NewSchedule().FlapLink(geom.C(1, 0), geom.East, 0, 1<<40)
	if err := m.AttachSchedule(sched); err != nil {
		t.Fatal(err)
	}
	startRemoteLoad(t, m, geom.C(0, 0), addr)
	if err := m.RunCtx(context.Background(), 20_000); err != nil {
		t.Fatalf("machine did not quiesce: %v", err)
	}
	faults := m.Faults()
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "gave up") {
		t.Fatalf("faults = %v, want one 'gave up' error", faults)
	}
	rep := m.Degradation()
	if rep.ExhaustedOps != 1 {
		t.Errorf("ExhaustedOps = %d, want 1", rep.ExhaustedOps)
	}
	if len(rep.DegradedTiles) != 1 || rep.DegradedTiles[0] != dst {
		t.Errorf("DegradedTiles = %v, want [%v]", rep.DegradedTiles, dst)
	}
	if rep.RetriedOps != 2 {
		t.Errorf("RetriedOps = %d, want 2", rep.RetriedOps)
	}
}

// TestRelayDetourRemoteAccess constructs a fault pattern where both
// DoR paths between two tiles are blocked and only a relay-tile detour
// (paper Section VI) connects them; the machine must complete the op by
// forwarding the request and the response through the relay.
func TestRelayDetourRemoteAccess(t *testing.T) {
	cfg := smallConfig()
	cfg.TilesX, cfg.TilesY = 3, 3
	cfg.JTAGChains = 3
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(1, 0)) // blocks XY (0,0)->(2,2) and YX (2,2)->(0,0)
	fm.MarkFaulty(geom.C(0, 2)) // blocks YX (0,0)->(2,2) and XY (2,2)->(0,0)
	m := newMachine(t, cfg, fm)

	dst := geom.C(2, 2)
	addr := globalWindowAddr(cfg, dst)
	if err := m.WriteGlobal32(addr, 77); err != nil {
		t.Fatal(err)
	}
	c := startRemoteLoad(t, m, geom.C(0, 0), addr)
	if err := m.RunCtx(context.Background(), 20_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if faults := m.Faults(); len(faults) > 0 {
		t.Fatalf("faults: %v", faults)
	}
	if c.Regs[2] != 77 {
		t.Errorf("loaded %d, want 77", c.Regs[2])
	}
	rep := m.Degradation()
	if rep.RelayedRequests == 0 {
		t.Errorf("expected relayed requests, got %+v", rep)
	}
	if rep.RelayedResponses == 0 {
		t.Errorf("expected relayed responses, got %+v", rep)
	}
	if m.Net().Stats().Forwarded == 0 {
		t.Error("network stats should count forwards")
	}
}

// TestKillTileRemapShadow kills a tile and checks the Section VIII
// degraded mode: its global window remaps to zeroed shadow storage that
// both the host backdoor and remote ops can reach.
func TestKillTileRemapShadow(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	victim := geom.C(3, 3)
	addr := globalWindowAddr(cfg, victim)
	if err := m.WriteGlobal32(addr, 555); err != nil {
		t.Fatal(err)
	}
	if !m.KillTile(victim) {
		t.Fatal("KillTile returned false")
	}
	if m.KillTile(victim) {
		t.Error("second KillTile should be a no-op")
	}
	if m.Tile(victim) != nil {
		t.Error("dead tile should read as nil")
	}
	// The window survives as zeroed shadow storage: the old data is
	// honestly lost, but the address stays valid.
	if v, err := m.ReadGlobal32(addr); err != nil || v != 0 {
		t.Fatalf("shadow read = %d, %v; want 0, nil", v, err)
	}
	// The shadow is demand-paged: it holds no storage until written.
	shadow := m.shadow[m.grid.Index(victim)]
	if n := allocatedPages(shadow); n != 0 {
		t.Errorf("fresh shadow window holds %d pages, want 0", n)
	}
	if err := m.WriteGlobal32(addr, 42); err != nil {
		t.Fatal(err)
	}
	if n := allocatedPages(shadow); n != 1 {
		t.Errorf("shadow window holds %d pages after one store, want 1", n)
	}
	// A core on a surviving tile reaches the shadow through the network.
	c := startRemoteLoad(t, m, geom.C(0, 0), addr)
	if err := m.RunCtx(context.Background(), 20_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.Regs[2] != 42 {
		t.Errorf("remote shadow load = %d, want 42", c.Regs[2])
	}
	rep := m.Degradation()
	if rep.RemappedWindows != 1 {
		t.Errorf("RemappedWindows = %d, want 1", rep.RemappedWindows)
	}
	if want := int64(arch.NewAddressMap(cfg).GlobalWindowBytes()); rep.LostSharedBytes != want {
		t.Errorf("LostSharedBytes = %d, want %d", rep.LostSharedBytes, want)
	}
	if len(rep.KilledTiles) != 1 || rep.KilledTiles[0] != victim {
		t.Errorf("KilledTiles = %v", rep.KilledTiles)
	}
}

// chaosBFSMachine builds an 8x8 2-core machine for the acceptance
// scenario.
func chaosBFSMachine(t *testing.T) *Machine {
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY = 8, 8
	cfg.CoresPerTile = 2
	cfg.JTAGChains = 8
	return newMachine(t, cfg, nil)
}

// TestChaosBFSKillBenignTile is the acceptance scenario's happy half:
// an 8x8 BFS run with a tile killed mid-run that hosts no workers and
// no graph data completes and still verifies against the oracle.
func TestChaosBFSKillBenignTile(t *testing.T) {
	m := chaosBFSMachine(t)
	sched := inject.NewSchedule().KillTileAt(3000, geom.C(6, 6))
	if err := m.AttachSchedule(sched); err != nil {
		t.Fatal(err)
	}
	g := GridGraph(8, 8).Unweighted()
	ws := SpreadWorkers(m, 16)
	res, err := RunSSSPUnderFaults(m, g, 0, ws, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %v", res.RunErr)
	}
	want := g.ReferenceSSSP(0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
	if len(res.Report.KilledTiles) != 1 {
		t.Errorf("KilledTiles = %v", res.Report.KilledTiles)
	}
}

// TestChaosBFSKillWorkerTileTerminates is the acceptance scenario's
// hard half: killing a worker tile makes the barrier unreachable, and
// the run must still terminate within its budget with a structured
// report — never hang, never panic — with a deterministic outcome.
func TestChaosBFSKillWorkerTileTerminates(t *testing.T) {
	run := func() *ChaosResult {
		m := chaosBFSMachine(t)
		sched := inject.NewSchedule().KillTileAt(2000, geom.C(1, 0))
		if err := m.AttachSchedule(sched); err != nil {
			t.Fatal(err)
		}
		g := GridGraph(8, 8).Unweighted()
		ws := SpreadWorkers(m, 16) // (1,0) core 0 is worker 1
		res, err := RunSSSPUnderFaults(m, g, 0, ws, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Completed {
		t.Fatal("run should exhaust its budget: the barrier lost a worker")
	}
	if res.RunErr == nil {
		t.Fatal("expected a budget-exhaustion error")
	}
	if res.Cycles != 60_000 {
		t.Errorf("Cycles = %d, want the full budget", res.Cycles)
	}
	if len(res.Report.KilledTiles) != 1 {
		t.Errorf("KilledTiles = %v", res.Report.KilledTiles)
	}
	// Determinism: the same schedule replays to the same outcome.
	res2 := run()
	if res2.Completed != res.Completed || res2.Cycles != res.Cycles {
		t.Fatalf("outcome not deterministic: %+v vs %+v", res2, res)
	}
	for v := range res.Dist {
		if res.Dist[v] != res2.Dist[v] {
			t.Fatalf("dist[%d] differs across replays: %d vs %d", v, res.Dist[v], res2.Dist[v])
		}
	}
	if res.Report.RetriedOps != res2.Report.RetriedOps ||
		res.Report.TimedOutOps != res2.Report.TimedOutOps ||
		res.Report.DroppedResponses != res2.Report.DroppedResponses {
		t.Fatalf("report not deterministic: %+v vs %+v", res.Report, res2.Report)
	}
}

// TestBitErrorSchedule injects payload corruption and checks the
// machine still terminates (the op retries or completes with the
// corrupted value — either way, no hang).
func TestBitErrorSchedule(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	m.RemoteTimeout = 100
	dst := geom.C(3, 0)
	addr := globalWindowAddr(cfg, dst)
	if err := m.WriteGlobal32(addr, 9); err != nil {
		t.Fatal(err)
	}
	sched := inject.NewSchedule()
	for cy := int64(1); cy < 40; cy++ {
		sched.Add(inject.Event{Cycle: cy, Kind: inject.BitError, Tile: geom.C(1, 0), Mask: 1 << 40})
	}
	if err := m.AttachSchedule(sched); err != nil {
		t.Fatal(err)
	}
	startRemoteLoad(t, m, geom.C(0, 0), addr)
	if err := m.RunCtx(context.Background(), 20_000); err != nil {
		t.Fatalf("run: %v", err)
	}
}
