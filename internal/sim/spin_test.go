package sim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/core"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/inject"
	"waferscale/internal/noc"
	"waferscale/internal/sim"
)

// spinCase is one run that the spin fast-forward may shorten: a
// machine, ready to run, and the call that runs it.
type spinCase struct {
	name  string
	build func(t *testing.T) *sim.Machine
	exec  func(t *testing.T, m *sim.Machine) (sim.ChaosResult, error)
}

// spinRun is everything a run leaves behind that the differential
// compares, plus the cycles it stepped.
type spinRun struct {
	res      sim.ChaosResult
	runErr   string
	state    string
	packets  []noc.Packet // the network's packets, drained after the run
	progress []int64
	stepped  int64
}

func (sc spinCase) run(t *testing.T, skip bool) spinRun {
	t.Helper()
	m := sc.build(t)
	sim.SetSpinSkip(m, skip)
	var out spinRun
	m.Progress = func(c int64) { out.progress = append(out.progress, c) }
	res, err := sc.exec(t, m)
	out.res = res
	if res.RunErr != nil {
		out.runErr = res.RunErr.Error()
	}
	if err != nil {
		out.runErr += " / " + err.Error()
	}
	out.res.RunErr = nil
	out.state = sim.StateView(m)
	out.stepped = sim.SteppedCycles(m)
	// Drain the network, then inject one more packet, to see every
	// packet's ID, tag and injection cycle, and the next ID.
	net := m.Net()
	net.OnDeliver = func(p noc.Packet) { out.packets = append(out.packets, p) }
	if err := net.RunUntilDrained(100_000); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	if id, err := net.Inject(noc.XY, geom.C(0, 0), geom.C(1, 0), noc.Request, 0, 0); err == nil {
		out.packets = append(out.packets, noc.Packet{ID: id})
	}
	return out
}

// compare runs sc with the fast-forward on and off, fails the test
// where the two differ, and returns the fast run.
func (sc spinCase) compare(t *testing.T) spinRun {
	t.Helper()
	fast, ref := sc.run(t, true), sc.run(t, false)
	if !reflect.DeepEqual(fast.res, ref.res) {
		t.Errorf("%s: results differ:\nfast %+v\nref  %+v", sc.name, fast.res, ref.res)
	}
	if fast.runErr != ref.runErr {
		t.Errorf("%s: run errors differ: fast %q, ref %q", sc.name, fast.runErr, ref.runErr)
	}
	if fast.state != ref.state {
		t.Errorf("%s: machine state differs:\nfast:\n%s\nref:\n%s", sc.name, fast.state, ref.state)
	}
	if !reflect.DeepEqual(fast.packets, ref.packets) {
		t.Errorf("%s: network packets differ:\nfast %v\nref  %v", sc.name, fast.packets, ref.packets)
	}
	if !reflect.DeepEqual(fast.progress, ref.progress) {
		t.Errorf("%s: Progress streams differ:\nfast %v\nref  %v", sc.name, fast.progress, ref.progress)
	}
	if ref.stepped != ref.res.Cycles {
		t.Errorf("%s: with the fast-forward off, %d of %d cycles were stepped", sc.name, ref.stepped, ref.res.Cycles)
	}
	return fast
}

// bfsExec runs BFS from vertex 0 of g under the machine's fault
// schedule, as the chaos drivers do.
func bfsExec(g *sim.Graph, spread bool, workers int, budget int64) func(*testing.T, *sim.Machine) (sim.ChaosResult, error) {
	return func(t *testing.T, m *sim.Machine) (sim.ChaosResult, error) {
		ws := sim.AllWorkers(m, workers)
		if spread {
			ws = sim.SpreadWorkers(m, workers)
		}
		res, err := sim.RunSSSPUnderFaults(m, g, 0, ws, budget)
		if err != nil {
			t.Fatal(err)
		}
		return *res, nil
	}
}

// scheduled attaches sched to m.
func scheduled(t *testing.T, m *sim.Machine, sched *inject.Schedule) *sim.Machine {
	t.Helper()
	if err := m.AttachSchedule(sched); err != nil {
		t.Fatal(err)
	}
	return m
}

// benchChaosCase is trial i of the benchmark's core.RunChaos at the
// given seed and kill count: BFS on a 6x6 grid graph by 8 workers on a
// 4x4 machine, kills drawn from the default window, an 80k budget.
func benchChaosCase(seed int64, kills, i int) spinCase {
	return spinCase{
		name: fmt.Sprintf("bench chaos seed %d kills %d trial %d", seed, kills, i),
		build: func(t *testing.T) *sim.Machine {
			m, err := core.NewDesign().BuildMachine(4, nil)
			if err != nil {
				t.Fatal(err)
			}
			window := core.DefaultChaosConfig().KillWindow
			return scheduled(t, m, inject.Random(m.Cfg.Grid(), kills, window, fault.TrialSeed(seed, kills, i), nil))
		},
		exec: bfsExec(sim.GridGraph(6, 6).Unweighted(), true, 8, 80_000),
	}
}

// wsimConfig is wsim's default machine cut to side x side tiles.
func wsimConfig(t *testing.T, side int) arch.Config {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.CoresPerTile = 4
	cfg, err := cfg.Square(side)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// wsimCase is trial i of `wsim -workload bfs -side 8 -faults 3
// -trials N -topology topo -max-cycles budget`.
func wsimCase(topo string, i int, budget int64) spinCase {
	return spinCase{
		name: fmt.Sprintf("wsim %s trial %d", topo, i),
		build: func(t *testing.T) *sim.Machine {
			cfg := wsimConfig(t, 8)
			m, err := sim.NewMachineTopology(cfg, fault.NewMap(cfg.Grid()), topo)
			if err != nil {
				t.Fatal(err)
			}
			return scheduled(t, m, inject.Random(cfg.Grid(), 3, [2]int64{1000, 1000}, fault.TrialSeed(1, 3, i), nil))
		},
		exec: bfsExec(sim.RandomGraph(64, 192, 1, 2021).Unweighted(), false, 16, budget),
	}
}

// pollCase has every core of each corner tile of a 4x4 machine with
// cores cores per tile poll a word in the window of tile (1,1) until it
// turns nonzero, which it never does. tune adjusts the machine before
// it runs.
func pollCase(name string, cores int, budget int64, tune func(*testing.T, *sim.Machine)) spinCase {
	return spinCase{
		name: name,
		build: func(t *testing.T) *sim.Machine {
			cfg := arch.DefaultConfig()
			cfg.CoresPerTile = cores
			cfg, err := cfg.Square(4)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
			if err != nil {
				t.Fatal(err)
			}
			flag := arch.GlobalBase + uint32(cfg.Grid().Index(geom.C(1, 1)))*arch.NewAddressMap(cfg).GlobalWindowBytes()
			prog, err := sim.Assemble(fmt.Sprintf(`
			    la   r1, %#x
			poll:
			    lw   r2, 0(r1)
			    beq  r2, r0, poll
			    halt
			`, flag))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []geom.Coord{geom.C(0, 0), geom.C(3, 0), geom.C(0, 3), geom.C(3, 3)} {
				for lane := 0; lane < cores; lane++ {
					if err := m.LoadProgram(c, lane, prog); err != nil {
						t.Fatal(err)
					}
				}
			}
			tune(t, m)
			return m
		},
		exec: func(t *testing.T, m *sim.Machine) (sim.ChaosResult, error) {
			err := m.RunCtx(context.Background(), budget)
			return sim.ChaosResult{Cycles: m.Cycle(), Completed: err == nil, Report: m.Degradation()}, err
		},
	}
}

// TestSpinFastForwardMatchesStepping runs machines that end in a spin
// once with the fast-forward and once stepping every cycle: results,
// distance readbacks, cycle counts, degradation reports, every machine,
// core and network counter, the machine state and the Progress stream
// must be identical.
func TestSpinFastForwardMatchesStepping(t *testing.T) {
	t.Run("bench chaos", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			for _, kills := range []int{0, 1, 2} {
				for i := 0; i < 2 && (kills > 0 || i == 0); i++ {
					sc := benchChaosCase(seed, kills, i)
					fast := sc.compare(t)
					// The three trials that never pass the barrier at seed 1
					// (periods 10010, 2310 and 2310) step at most half of
					// their 80k budget.
					if seed == 1 && !fast.res.Completed && fast.stepped > 40_000 {
						t.Errorf("%s: stepped %d of %d cycles", sc.name, fast.stepped, fast.res.Cycles)
					}
				}
			}
		}
	})
	t.Run("wsim trials and topologies", func(t *testing.T) {
		// Trials 0 and 3 on the mesh, express and vertical links, and
		// trial 3 on the concentrated mesh, never pass the barrier.
		for _, c := range []struct {
			topo  string
			trial int
		}{{"mesh", 0}, {"mesh", 1}, {"mesh", 3}, {"cmesh", 3}, {"express", 0}, {"vertical", 3}} {
			sc := wsimCase(c.topo, c.trial, 200_000)
			fast := sc.compare(t)
			if !fast.res.Completed && fast.stepped > 20_000 {
				t.Errorf("%s: a stuck trial stepped %d of %d cycles", sc.name, fast.stepped, fast.res.Cycles)
			}
		}
	})
	t.Run("poll target dies", func(t *testing.T) {
		// The pollers' requests in flight to the dead tile time out and
		// are retried, with jitter, toward the remapped window; the spin
		// after the retries may be skipped, the retries may not. With one
		// core per tile the period may be odd, which turns the network's
		// two-bucket flight wheel on a skip.
		sc := pollCase("poll target dies", 1, 60_000, func(t *testing.T, m *sim.Machine) {
			scheduled(t, m, inject.NewSchedule().KillTileAt(3000, geom.C(1, 1)))
		})
		fast := sc.compare(t)
		if fast.res.Report.RetriedOps == 0 || fast.stepped >= fast.res.Cycles {
			t.Errorf("want retries and a skip: %d retries, %d of %d cycles stepped",
				fast.res.Report.RetriedOps, fast.stepped, fast.res.Cycles)
		}
	})
	t.Run("poll retries every load", func(t *testing.T) {
		// A remote timeout below the round trip retries every load, so
		// no period is free of retries and nothing may be skipped.
		sc := pollCase("poll retries every load", 3, 30_000, func(_ *testing.T, m *sim.Machine) {
			m.RemoteTimeout, m.RemoteRetries = 6, 10
		})
		fast := sc.compare(t)
		if fast.res.Report.RetriedOps == 0 || fast.stepped != fast.res.Cycles {
			t.Errorf("want retries and no skip: %d retries, %d of %d cycles stepped",
				fast.res.Report.RetriedOps, fast.stepped, fast.res.Cycles)
		}
	})
	t.Run("cancelled inside a skip", func(t *testing.T) {
		// The skip reports the strides it passes; a cancellation seen at
		// one of them pauses the machine on that stride's cycle.
		sc := benchChaosCase(1, 2, 0)
		sc.exec = func(t *testing.T, m *sim.Machine) (sim.ChaosResult, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			record := m.Progress
			m.Progress = func(c int64) {
				record(c)
				if c >= 20_000 {
					cancel()
				}
			}
			_, err := sim.RunSSSPUnderFaultsCtx(ctx, m, sim.GridGraph(6, 6).Unweighted(), 0, sim.SpreadWorkers(m, 8), 80_000)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a cancellation", err)
			}
			return sim.ChaosResult{Cycles: m.Cycle(), Report: m.Degradation()}, err
		}
		fast := sc.compare(t)
		if fast.res.Cycles != 5*4096 || fast.stepped >= fast.res.Cycles {
			t.Errorf("paused at %d after stepping %d cycles, want a skip and a pause at %d",
				fast.res.Cycles, fast.stepped, 5*4096)
		}
	})
	t.Run("resumed run", func(t *testing.T) {
		// A stuck trial paused at its budget and resumed for a second
		// one: each RunCtx call detects and skips on its own.
		sc := benchChaosCase(1, 2, 0)
		first := sc.exec
		sc.exec = func(t *testing.T, m *sim.Machine) (sim.ChaosResult, error) {
			res, _ := first(t, m)
			err := m.RunCtx(context.Background(), 50_000)
			var be *sim.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("resumed run: err = %v, want a budget error", err)
			}
			res.Cycles = m.Cycle()
			return res, err
		}
		fast := sc.compare(t)
		if fast.stepped >= fast.res.Cycles/2 {
			t.Errorf("resumed run stepped %d of %d cycles", fast.stepped, fast.res.Cycles)
		}
	})
}
