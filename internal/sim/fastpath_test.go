package sim

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// The tests in this file pin the runnable-list fast path in
// Machine.Step / AllHalted to the reference full scan (kept alive
// behind the fullScan flag): same machines, same workloads, one
// stepped by each engine, everything observable compared.

// diffMachines compares every counter the two engines could plausibly
// diverge on.
func diffMachines(t *testing.T, fast, ref *Machine) {
	t.Helper()
	if fast.Cycle() != ref.Cycle() {
		t.Errorf("cycles: fast %d, ref %d", fast.Cycle(), ref.Cycle())
	}
	if fast.RemoteRequests != ref.RemoteRequests {
		t.Errorf("RemoteRequests: fast %d, ref %d", fast.RemoteRequests, ref.RemoteRequests)
	}
	if fast.BankConflicts != ref.BankConflicts {
		t.Errorf("BankConflicts: fast %d, ref %d", fast.BankConflicts, ref.BankConflicts)
	}
	if fast.AllHalted() != ref.AllHalted() {
		t.Errorf("AllHalted: fast %v, ref %v", fast.AllHalted(), ref.AllHalted())
	}
	if fn, rn := len(fast.Faults()), len(ref.Faults()); fn != rn {
		t.Errorf("fault counts: fast %d, ref %d", fn, rn)
	}
	fs, rs := fast.Net().Stats(), ref.Net().Stats()
	if fs != rs {
		t.Errorf("NoC stats: fast %+v, ref %+v", fs, rs)
	}
}

// TestMachineFastPathDifferentialBFS: a healthy BFS run must produce
// identical results, cycle counts and machine counters whether cores
// are stepped via the runnable list or the reference full scan.
func TestMachineFastPathDifferentialBFS(t *testing.T) {
	g := GridGraph(6, 6).Unweighted()
	want := g.ReferenceSSSP(0)

	run := func(fullScan bool) (*WorkloadResult, *Machine) {
		cfg := arch.DefaultConfig()
		cfg.TilesX, cfg.TilesY = 6, 6
		cfg.CoresPerTile = 2
		cfg.JTAGChains = 6
		m := newMachine(t, cfg, nil)
		m.fullScan = fullScan
		res, err := RunBFS(m, g, 0, SpreadWorkers(m, 12), 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	fastRes, fast := run(false)
	refRes, ref := run(true)

	for v := range want {
		if fastRes.Dist[v] != want[v] {
			t.Fatalf("fast path wrong answer: dist[%d] = %d, want %d", v, fastRes.Dist[v], want[v])
		}
		if fastRes.Dist[v] != refRes.Dist[v] {
			t.Fatalf("dist[%d]: fast %d, ref %d", v, fastRes.Dist[v], refRes.Dist[v])
		}
	}
	if fastRes.Cycles != refRes.Cycles {
		t.Errorf("Cycles: fast %d, ref %d", fastRes.Cycles, refRes.Cycles)
	}
	if fastRes.Instructions != refRes.Instructions {
		t.Errorf("Instructions: fast %d, ref %d", fastRes.Instructions, refRes.Instructions)
	}
	if fastRes.RemoteOps != refRes.RemoteOps {
		t.Errorf("RemoteOps: fast %d, ref %d", fastRes.RemoteOps, refRes.RemoteOps)
	}
	if fastRes.RemoteLatency != refRes.RemoteLatency {
		t.Errorf("RemoteLatency: fast %v, ref %v", fastRes.RemoteLatency, refRes.RemoteLatency)
	}
	diffMachines(t, fast, ref)
}

// TestMachineFastPathDifferentialChaos replays an identical fault
// schedule — a worker tile killed mid-run (barrier never met, budget
// expires), a link flap and a bit error — through both engines. This
// exercises the hard transitions: cores faulting outside their own
// step (KillTile), retry wakeups, and quiescent-tile skipping, all of
// which must leave the runnable lists consistent with the scan: every
// core's state and every memory page, shadows included, must match.
func TestMachineFastPathDifferentialChaos(t *testing.T) {
	g := GridGraph(8, 8).Unweighted()
	run := func(fullScan bool) (*ChaosResult, *Machine) {
		m := chaosBFSMachine(t)
		m.fullScan = fullScan
		sched := inject.NewSchedule().
			KillTileAt(2000, geom.C(1, 0)).
			FlapLink(geom.C(3, 3), geom.East, 1000, 1500).
			Add(inject.Event{Cycle: 1200, Kind: inject.BitError, Tile: geom.C(2, 2), Mask: 0xFF})
		if err := m.AttachSchedule(sched); err != nil {
			t.Fatal(err)
		}
		res, err := RunSSSPUnderFaults(m, g, 0, SpreadWorkers(m, 16), 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	fastRes, fast := run(false)
	refRes, ref := run(true)

	if fastRes.Completed != refRes.Completed {
		t.Fatalf("Completed: fast %v, ref %v", fastRes.Completed, refRes.Completed)
	}
	if fastRes.Cycles != refRes.Cycles {
		t.Errorf("Cycles: fast %d, ref %d", fastRes.Cycles, refRes.Cycles)
	}
	if fastRes.ReadErrors != refRes.ReadErrors {
		t.Errorf("ReadErrors: fast %d, ref %d", fastRes.ReadErrors, refRes.ReadErrors)
	}
	for v := range fastRes.Dist {
		if fastRes.Dist[v] != refRes.Dist[v] {
			t.Fatalf("dist[%d]: fast %d, ref %d", v, fastRes.Dist[v], refRes.Dist[v])
		}
	}
	fr, rr := fastRes.Report, refRes.Report
	if len(fr.KilledTiles) != len(rr.KilledTiles) ||
		len(fr.DegradedTiles) != len(rr.DegradedTiles) ||
		fr.RemappedWindows != rr.RemappedWindows ||
		fr.LostSharedBytes != rr.LostSharedBytes ||
		fr.RelayedRequests != rr.RelayedRequests ||
		fr.RelayedResponses != rr.RelayedResponses ||
		fr.RetriedOps != rr.RetriedOps ||
		fr.TimedOutOps != rr.TimedOutOps ||
		fr.ExhaustedOps != rr.ExhaustedOps ||
		fr.DroppedResponses != rr.DroppedResponses ||
		fr.DroppedForwards != rr.DroppedForwards ||
		fr.LinkFlaps != rr.LinkFlaps ||
		fr.BitErrors != rr.BitErrors {
		t.Errorf("degradation reports diverge:\nfast %+v\nref  %+v", fr, rr)
	}
	diffMachinesDeep(t, fast, ref)
}

// diffMachinesDeep extends diffMachines with a per-core comparison:
// every core's architectural and statistical state must match.
func diffMachinesDeep(t *testing.T, got, ref *Machine) {
	t.Helper()
	diffMachines(t, got, ref)
	diffMemories(t, got, ref)
	if got.RemoteLatency != ref.RemoteLatency {
		t.Errorf("RemoteLatency: got %d, ref %d", got.RemoteLatency, ref.RemoteLatency)
	}
	if got.running != ref.running {
		t.Errorf("running counter: got %d, ref %d", got.running, ref.running)
	}
	for i := range ref.tiles {
		rt, gt := ref.tiles[i], got.tiles[i]
		if (rt == nil) != (gt == nil) {
			t.Fatalf("tile %d: presence diverges", i)
		}
		if rt == nil {
			continue
		}
		if rt.dead != gt.dead {
			t.Errorf("tile %d: dead %v vs %v", i, gt.dead, rt.dead)
		}
		for ci := range rt.Cores {
			rc, gc := rt.Cores[ci], gt.Cores[ci]
			if rc.state != gc.state || rc.PC != gc.PC || rc.Regs != gc.Regs {
				t.Fatalf("tile %d core %d: arch state diverges (state %d/%d pc %#x/%#x)",
					i, ci, gc.state, rc.state, gc.PC, rc.PC)
			}
			if rc.Instret != gc.Instret || rc.StallFixed != gc.StallFixed ||
				rc.StallRemote != gc.StallRemote || rc.RetryCycles != gc.RetryCycles {
				t.Fatalf("tile %d core %d: stats diverge (instret %d/%d stallR %d/%d)",
					i, ci, gc.Instret, rc.Instret, gc.StallRemote, rc.StallRemote)
			}
		}
	}
}

// TestAllHaltedCounterTracksScan steps one machine and, every cycle,
// checks the O(1) running-counter answer against the reference scan by
// toggling fullScan (counters are maintained in both modes, so the
// toggle is safe). The program mix makes cores stop at different
// times: a quick halter, a longer loop, and a core that faults.
func TestAllHaltedCounterTracksScan(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)

	load := func(tile geom.Coord, core int, src string) {
		if err := m.LoadProgram(tile, core, mustAssemble(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	load(geom.C(0, 0), 0, "halt")
	load(geom.C(1, 1), 1, `
	    li  r1, 40
	loop:
	    addi r1, r1, -1
	    bne r1, r0, loop
	    halt
	`)
	load(geom.C(2, 2), 2, "la r1, 0x20000000\nlw r2, 0(r1)\nhalt") // unmapped: faults
	load(geom.C(3, 3), 3, `
	    li  r1, 15
	l2:
	    addi r1, r1, -1
	    bne r1, r0, l2
	    halt
	`)

	sawRunning := false
	for i := 0; i < 400; i++ {
		fastAns := m.AllHalted()
		m.fullScan = true
		scanAns := m.AllHalted()
		m.fullScan = false
		if fastAns != scanAns {
			t.Fatalf("cycle %d: counter says AllHalted=%v, scan says %v", m.Cycle(), fastAns, scanAns)
		}
		if !fastAns {
			sawRunning = true
		}
		if fastAns && sawRunning {
			break
		}
		m.Step()
	}
	if !sawRunning {
		t.Fatal("machine never ran")
	}
	if !m.AllHalted() {
		t.Fatal("machine did not quiesce in 400 cycles")
	}
	if len(m.Faults()) != 1 {
		t.Errorf("faults = %v, want exactly the planted one", m.Faults())
	}

	// Reloading a stopped core must re-enter it into the runnable
	// bookkeeping: the machine runs again and quiesces again.
	load(geom.C(0, 0), 0, `
	    li r1, 5
	r2l:
	    addi r1, r1, -1
	    bne r1, r0, r2l
	    halt
	`)
	if m.AllHalted() {
		t.Fatal("reloaded core not counted as running")
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !m.AllHalted() {
		t.Fatal("machine did not quiesce after reload")
	}
}

// TestActiveTilesTrackScan steps one machine and, every cycle, checks
// the active-tile set against a scan of every core: a tile whose bit is
// clear must hold no runnable core, or Step would skip it. The program
// mix stops cores in every way a core can stop — a quick halter, a
// longer loop, a fault, a KillTile of a tile with running cores — and
// then reloads a stopped core on a tile that had gone quiet.
func TestActiveTilesTrackScan(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	load := func(tile geom.Coord, core int, src string) {
		if err := m.LoadProgram(tile, core, mustAssemble(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	loop := func(n int) string {
		return fmt.Sprintf("li r1, %d\nl:\naddi r1, r1, -1\nbne r1, r0, l\nhalt", n)
	}
	isActive := func(i int) bool { return m.active[i>>6]>>uint(i&63)&1 == 1 }
	check := func() {
		t.Helper()
		for i, tl := range m.tiles {
			if tl == nil || isActive(i) {
				continue
			}
			for _, c := range tl.Cores {
				if !c.Halted() {
					t.Fatalf("cycle %d: tile %v core %d is runnable but its tile's bit is clear", m.Cycle(), tl.Coord, c.idx)
				}
			}
		}
	}
	activeCount := func() int {
		n := 0
		for _, w := range m.active {
			n += bits.OnesCount64(w)
		}
		return n
	}

	quiet, victim := geom.C(0, 0), geom.C(1, 2)
	load(quiet, 0, "halt")
	load(geom.C(1, 1), 1, loop(40))
	load(geom.C(2, 2), 2, "la r1, 0x20000000\nlw r2, 0(r1)\nhalt") // unmapped: faults
	load(victim, 0, loop(500))
	load(victim, 3, loop(500))
	check()

	for i := 0; i < 400 && !m.AllHalted(); i++ {
		if i == 20 {
			if !m.KillTile(victim) {
				t.Fatal("KillTile refused a live tile")
			}
			check()
		}
		m.Step()
		check()
	}
	if !m.AllHalted() {
		t.Fatal("machine did not quiesce in 400 cycles")
	}
	if len(m.Faults()) != 3 {
		t.Errorf("faults = %v, want the planted fault and the two killed cores", m.Faults())
	}
	if n := activeCount(); n != 0 {
		t.Fatalf("quiescent machine still has %d active tiles", n)
	}

	// Reloading a stopped core on a quiet tile must re-enter the tile
	// into the active set.
	load(quiet, 0, loop(5))
	if !isActive(m.grid.Index(quiet)) {
		t.Fatal("reloaded core's tile not marked active")
	}
	for i := 0; i < 100 && !m.AllHalted(); i++ {
		m.Step()
		check()
	}
	if !m.AllHalted() || activeCount() != 0 {
		t.Fatalf("reloaded machine did not quiesce: AllHalted=%v, %d active tiles", m.AllHalted(), activeCount())
	}
}

// TestFastPathQuiescentTileSkip sanity-checks the fast path on a
// mostly-idle machine with faulty construction tiles: only two of 16
// tiles ever have runnable cores, and the run still matches the
// reference scan exactly.
func TestFastPathQuiescentTileSkip(t *testing.T) {
	fmFaults := []geom.Coord{geom.C(1, 2), geom.C(2, 1)}
	run := func(fullScan bool) *Machine {
		cfg := smallConfig()
		fm := fault.NewMap(cfg.Grid())
		for _, c := range fmFaults {
			fm.MarkFaulty(c)
		}
		m := newMachine(t, cfg, fm)
		m.fullScan = fullScan
		src := `
		    li  r1, 30
		q:
		    addi r1, r1, -1
		    bne r1, r0, q
		    halt
		`
		if err := m.LoadProgram(geom.C(0, 0), 1, mustAssemble(t, src)); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(geom.C(3, 3), 0, mustAssemble(t, src)); err != nil {
			t.Fatal(err)
		}
		if err := m.RunCtx(context.Background(), 10_000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	diffMachines(t, run(false), run(true))
}
