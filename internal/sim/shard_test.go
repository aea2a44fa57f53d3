package sim

import (
	"reflect"
	"slices"
	"testing"

	"waferscale/internal/arch"
)

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

// TestMachineNetShardedDifferential sets Net().Shards on a machine
// driven by core-generated traffic and pins it to the unsharded
// machine: a healthy BFS run and a run under a kill, a link flap and a
// bit error, whose retries and relay detours re-enter the network from
// the core loop. Shards only permits the noc.Sim row-band engine, and
// Step keeps to the serial one, so this pins that the knob changes no
// observable — results, cycle counts, machine counters, per-core
// state, memories, NoC stats and the degradation report. The row-band
// engine itself is held to the serial one under the same shape of
// traffic, responses injected on the complement network from
// OnDeliver, by internal/noc's TestEngineDifferentialRespond.
func TestMachineNetShardedDifferential(t *testing.T) {
	scenarios := []struct {
		name    string
		machine func(t *testing.T) *Machine
		run     func(t *testing.T, m *Machine) *ChaosResult
	}{
		{"bfs", func(t *testing.T) *Machine {
			cfg := arch.DefaultConfig()
			cfg.TilesX, cfg.TilesY = 5, 5
			cfg.CoresPerTile = 2
			cfg.JTAGChains = 5
			return newMachine(t, cfg, nil)
		}, func(t *testing.T, m *Machine) *ChaosResult {
			res, err := RunBFS(m, GridGraph(5, 5).Unweighted(), 0, SpreadWorkers(m, 10), 3_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return &ChaosResult{Dist: res.Dist, Cycles: res.Cycles, Completed: true}
		}},
		{"chaos", chaosBFSMachine, func(t *testing.T, m *Machine) *ChaosResult {
			if err := m.AttachSchedule(chaosSchedule()); err != nil {
				t.Fatal(err)
			}
			res, err := RunSSSPUnderFaults(m, GridGraph(8, 8).Unweighted(), 0, SpreadWorkers(m, 16), 60_000)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.machine(t)
			refRes := sc.run(t, ref)
			for _, shards := range []int{3, 7} {
				m := sc.machine(t)
				m.Net().Shards = shards
				res := sc.run(t, m)
				m.Close()
				if res.Completed != refRes.Completed || res.Cycles != refRes.Cycles || res.ReadErrors != refRes.ReadErrors {
					t.Errorf("shards=%d: completed/cycles/read errors %v/%d/%d, serial %v/%d/%d", shards,
						res.Completed, res.Cycles, res.ReadErrors, refRes.Completed, refRes.Cycles, refRes.ReadErrors)
				}
				if !slices.Equal(res.Dist, refRes.Dist) {
					t.Fatalf("shards=%d: distances diverge", shards)
				}
				if !reflect.DeepEqual(res.Report, refRes.Report) {
					t.Errorf("shards=%d: degradation reports diverge:\nsharded %+v\nserial  %+v", shards, res.Report, refRes.Report)
				}
				diffMachinesDeep(t, m, ref)
			}
		})
	}
}
