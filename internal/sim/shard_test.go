package sim

import (
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
)

// The tests in this file pin the sharded core loop (Machine.Shards > 1)
// to the serial engine: same machines, same workloads, one stepped by
// each, and everything observable — results, cycle counts, machine
// counters, per-core statistics, NoC stats, degradation reports — must
// be bit-identical. Shard counts include 7, which divides none of the
// test grids' heights, so the bands are uneven.

// diffMachinesDeep extends diffMachines with a per-core comparison:
// every core's architectural and statistical state must match.
func diffMachinesDeep(t *testing.T, sharded, ref *Machine) {
	t.Helper()
	diffMachines(t, sharded, ref)
	diffMemories(t, sharded, ref)
	if sharded.RemoteLatency != ref.RemoteLatency {
		t.Errorf("RemoteLatency: sharded %d, ref %d", sharded.RemoteLatency, ref.RemoteLatency)
	}
	if sharded.running != ref.running {
		t.Errorf("running counter: sharded %d, ref %d", sharded.running, ref.running)
	}
	for i := range ref.tiles {
		rt, st := ref.tiles[i], sharded.tiles[i]
		if (rt == nil) != (st == nil) {
			t.Fatalf("tile %d: presence diverges", i)
		}
		if rt == nil {
			continue
		}
		if rt.dead != st.dead {
			t.Errorf("tile %d: dead %v vs %v", i, st.dead, rt.dead)
		}
		for ci := range rt.Cores {
			rc, sc := rt.Cores[ci], st.Cores[ci]
			if rc.state != sc.state || rc.PC != sc.PC || rc.Regs != sc.Regs {
				t.Fatalf("tile %d core %d: arch state diverges (state %d/%d pc %#x/%#x)",
					i, ci, sc.state, rc.state, sc.PC, rc.PC)
			}
			if rc.Instret != sc.Instret || rc.StallFixed != sc.StallFixed ||
				rc.StallRemote != sc.StallRemote || rc.RetryCycles != sc.RetryCycles {
				t.Fatalf("tile %d core %d: stats diverge (instret %d/%d stallR %d/%d)",
					i, ci, sc.Instret, rc.Instret, sc.StallRemote, rc.StallRemote)
			}
		}
	}
}

// TestMachineShardedDifferentialBFS: a healthy BFS run across shard
// counts, including a non-divisor one, must match the serial engine on
// every observable.
func TestMachineShardedDifferentialBFS(t *testing.T) {
	g := GridGraph(6, 6).Unweighted()
	want := g.ReferenceSSSP(0)

	run := func(shards, workers int) (*WorkloadResult, *Machine) {
		cfg := arch.DefaultConfig()
		cfg.TilesX, cfg.TilesY = 6, 6
		cfg.CoresPerTile = 2
		cfg.JTAGChains = 6
		m := newMachine(t, cfg, nil)
		m.Shards = shards
		m.Workers = workers
		res, err := RunBFS(m, g, 0, SpreadWorkers(m, 12), 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
		return res, m
	}
	refRes, ref := run(1, 0)
	for v := range want {
		if refRes.Dist[v] != want[v] {
			t.Fatalf("serial engine wrong answer: dist[%d] = %d, want %d", v, refRes.Dist[v], want[v])
		}
	}
	for _, shards := range []int{2, 4, 7} {
		shRes, sh := run(shards, 0)
		for v := range want {
			if shRes.Dist[v] != refRes.Dist[v] {
				t.Fatalf("shards=%d: dist[%d] = %d, serial %d", shards, v, shRes.Dist[v], refRes.Dist[v])
			}
		}
		if shRes.Cycles != refRes.Cycles {
			t.Errorf("shards=%d: Cycles %d, serial %d", shards, shRes.Cycles, refRes.Cycles)
		}
		if shRes.Instructions != refRes.Instructions {
			t.Errorf("shards=%d: Instructions %d, serial %d", shards, shRes.Instructions, refRes.Instructions)
		}
		if shRes.RemoteOps != refRes.RemoteOps {
			t.Errorf("shards=%d: RemoteOps %d, serial %d", shards, shRes.RemoteOps, refRes.RemoteOps)
		}
		diffMachinesDeep(t, sh, ref)
	}
}

// TestMachineShardedDifferentialChaos replays an identical fault
// schedule — a worker tile killed mid-run, a link flap, a bit error —
// through the serial and sharded engines at several widths. This
// exercises the staged paths hard: remote-op issue under backpressure,
// deadline retries with kernel re-planning, degradation accounting, and
// cores faulting outside their own band's step (KillTile runs between
// cycles).
func TestMachineShardedDifferentialChaos(t *testing.T) {
	g := GridGraph(8, 8).Unweighted()
	run := func(shards, workers int) (*ChaosResult, *Machine) {
		m := chaosBFSMachine(t)
		m.Shards = shards
		m.Workers = workers
		sched := inject.NewSchedule().
			KillTileAt(2000, geom.C(1, 0)).
			FlapLink(geom.C(3, 3), geom.East, 1000, 1500).
			BitErrorAt(1200, geom.C(2, 2), 0xFF)
		if err := m.AttachSchedule(sched); err != nil {
			t.Fatal(err)
		}
		res, err := RunSSSPUnderFaults(m, g, 0, SpreadWorkers(m, 16), 60_000)
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
		return res, m
	}
	refRes, ref := run(1, 0)
	for _, sw := range [][2]int{{2, 0}, {7, 0}, {4, 1}, {4, 3}} {
		shards, workers := sw[0], sw[1]
		shRes, sh := run(shards, workers)
		if shRes.Completed != refRes.Completed {
			t.Fatalf("shards=%d workers=%d: Completed %v, serial %v", shards, workers, shRes.Completed, refRes.Completed)
		}
		if shRes.Cycles != refRes.Cycles {
			t.Errorf("shards=%d workers=%d: Cycles %d, serial %d", shards, workers, shRes.Cycles, refRes.Cycles)
		}
		if shRes.ReadErrors != refRes.ReadErrors {
			t.Errorf("shards=%d workers=%d: ReadErrors %d, serial %d", shards, workers, shRes.ReadErrors, refRes.ReadErrors)
		}
		for v := range shRes.Dist {
			if shRes.Dist[v] != refRes.Dist[v] {
				t.Fatalf("shards=%d workers=%d: dist[%d] = %d, serial %d", shards, workers, v, shRes.Dist[v], refRes.Dist[v])
			}
		}
		fr, rr := shRes.Report, refRes.Report
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
			t.Errorf("shards=%d workers=%d: degradation reports diverge:\nsharded %+v\nserial  %+v", shards, workers, fr, rr)
		}
		diffMachinesDeep(t, sh, ref)
	}
}

// TestMachineShardedComposesWithNetSharding runs the machine's core
// loop AND its NoC both sharded — the full parallel stack — against the
// all-serial engine.
func TestMachineShardedComposesWithNetSharding(t *testing.T) {
	g := GridGraph(5, 5).Unweighted()
	run := func(shards int) (*WorkloadResult, *Machine) {
		cfg := arch.DefaultConfig()
		cfg.TilesX, cfg.TilesY = 5, 5
		cfg.CoresPerTile = 2
		cfg.JTAGChains = 5
		m := newMachine(t, cfg, nil)
		m.Shards = shards
		m.Net().Shards = shards
		res, err := RunBFS(m, g, 0, SpreadWorkers(m, 10), 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
		return res, m
	}
	refRes, ref := run(1)
	for _, shards := range []int{3, 7} {
		shRes, sh := run(shards)
		for v := range shRes.Dist {
			if shRes.Dist[v] != refRes.Dist[v] {
				t.Fatalf("shards=%d: dist[%d] diverges", shards, v)
			}
		}
		if shRes.Cycles != refRes.Cycles {
			t.Errorf("shards=%d: Cycles %d, serial %d", shards, shRes.Cycles, refRes.Cycles)
		}
		diffMachinesDeep(t, sh, ref)
	}
}

// TestMachineShardedTraceForcesSerial: attaching a trace writer must
// route stepping through the serial loop (trace output interleaving is
// order-sensitive), even with Shards set.
func TestMachineShardedTraceForcesSerial(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	defer m.Close()
	m.Shards = 4
	var buf traceBuffer
	m.SetTrace(&buf, nil)
	if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, "li r1, 3\nhalt")); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.msh != nil {
		t.Error("sharded engine was built despite active tracing")
	}
	if buf.n == 0 {
		t.Error("no trace output")
	}
}

// traceBuffer counts trace writes without retaining them.
type traceBuffer struct{ n int }

func (b *traceBuffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }
