package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// This file holds the non-mesh topologies, which have no reference
// engine, to two oracles. Every scenario — uniform traffic,
// construction faults, runtime chaos, depth-1 backpressure,
// topology-specific port outages and idle gaps — runs straight through
// with the busy-set, credit and drained-counter scans after every step,
// and must match an unchecked run bit for bit. On fault-free,
// forward-free traffic every delivered packet must also have taken
// exactly the hops walkRoute walks on the link graph: each non-mesh
// policy returns one candidate, so the route is fixed by the endpoints.

// newTopoSim builds a simulator of the named topology over a seeded
// random fault map.
func newTopoSim(t *testing.T, name string, s scenario, cfg SimConfig) *Sim {
	t.Helper()
	topo, err := NewTopology(name, s.grid)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimTopology(fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed))), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// newTopologies are the non-mesh topologies (the mesh is held to the
// reference engine in refsim_test.go).
var newTopologies = []string{TopoCMesh, TopoExpress, TopoVertical}

// checkTopoLive is the per-step invariant of the non-mesh scenarios.
func checkTopoLive(t *testing.T, e engine) {
	t.Helper()
	checkBusySet(t, e)
	checkDrainedScan(t, e)
}

// runTopoScenario runs s on the named topology through run twice: once
// with checkTopoLive after every step and once without. The runs must
// agree bit for bit — the engine is deterministic and the scans only
// read — and deliver something. It returns the checked run's delivered
// packets and the topology.
func runTopoScenario(t *testing.T, name string, s scenario, run func(*testing.T, scenario, engine) (SimStats, []Packet, int64)) ([]Packet, Topology) {
	t.Helper()
	wantSt, wantPkts, wantCycles := run(t, s, newTopoSim(t, name, s, s.simConfig()))
	s.checkLiveFn = checkTopoLive
	sim := newTopoSim(t, name, s, s.simConfig())
	st, pkts, cycles := run(t, s, sim)
	requireSameRun(t, name+" checked vs unchecked", st, pkts, cycles, wantSt, wantPkts, wantCycles)
	if st.Delivered == 0 {
		t.Fatalf("%s: scenario delivered nothing", name)
	}
	return pkts, sim.topo
}

// requireRouteHops is the hop-count oracle: every delivered packet
// crossed exactly the links its topology's route walks.
func requireRouteHops(t *testing.T, topo Topology, pkts []Packet) {
	t.Helper()
	for _, p := range pkts {
		if want := walkRoute(t, topo, p.Net, p.Src, p.Dst); p.Hops != want {
			t.Fatalf("%s %v: %d hops, route walks %d", topo.Name(), p, p.Hops, want)
		}
	}
}

func TestTopoScenarioUniform(t *testing.T) {
	for _, name := range newTopologies {
		pkts, topo := runTopoScenario(t, name, scenario{
			grid: geom.NewGrid(12, 12), faults: 0, seed: 1101,
			cycles: 600, injectProb: 0.9,
		}, runScenario)
		requireRouteHops(t, topo, pkts)
	}
}

func TestTopoScenarioFaultyMap(t *testing.T) {
	for _, name := range newTopologies {
		runTopoScenario(t, name, scenario{
			grid: geom.NewGrid(10, 10), faults: 7, seed: 1202,
			cycles: 500, injectProb: 0.8,
		}, runScenario)
	}
}

func TestTopoScenarioChaos(t *testing.T) {
	// Runtime kills, mesh-direction link flaps, bit errors and relay
	// forwards: the fault-injection layer mapped onto each generalized
	// link graph.
	for _, name := range newTopologies {
		runTopoScenario(t, name, scenario{
			grid: geom.NewGrid(10, 10), faults: 3, seed: 1303,
			cycles: 500, injectProb: 0.85, chaos: true, forwardMod: 4,
		}, runScenario)
	}
}

func TestTopoScenarioBackpressure(t *testing.T) {
	// Depth-1 FIFOs under saturating load on a ragged (non-multiple)
	// grid: every FIFO fills, and CMesh/express exercise partial blocks
	// and clipped express rows.
	for _, name := range newTopologies {
		pkts, topo := runTopoScenario(t, name, scenario{
			grid: geom.NewGrid(11, 10), faults: 0, seed: 1505,
			cycles: 800, injectProb: 1.0, fifoDepth: 1,
		}, runScenario)
		requireRouteHops(t, topo, pkts)
	}
}

// TestTopoIdleGaps runs the idle-gap scenario on the non-mesh
// topologies: a hot kill with packets queued in the dead router and
// flying toward it, and a network that drains in every gap.
func TestTopoIdleGaps(t *testing.T) {
	for _, name := range newTopologies {
		runTopoScenario(t, name, idleGapScenario(geom.NewGrid(10, 10), 808),
			func(t *testing.T, s scenario, e engine) (SimStats, []Packet, int64) {
				return checkIdleGapExercised(t, name, s, e)
			})
	}
}

// TestTopoPortDownDifferential downs and raises topology-specific link
// ports (express lanes, CMesh spokes, vertical links) mid-run via
// SetPortDown — beyond the mesh-direction flaps runScenario drives. A
// down port stalls the packets routed through it but never reroutes
// them, so the hop-count oracle still holds.
func TestTopoPortDownDifferential(t *testing.T) {
	g := geom.NewGrid(12, 12)
	portDown := func(t *testing.T, s scenario, e engine) (SimStats, []Packet, int64) {
		sim := e.(*Sim)
		delivered := recordDeliveries(sim, false)
		rng := rand.New(rand.NewSource(s.seed))
		step := func() {
			sim.Step()
			if s.checkLiveFn != nil {
				s.checkLiveFn(t, sim)
			}
		}
		var downs []struct {
			c geom.Coord
			p int
		}
		for cyc := 0; cyc < s.cycles; cyc++ {
			if cyc%29 == 11 {
				c := geom.C(rng.Intn(g.W), rng.Intn(g.H))
				p := rng.Intn(sim.topo.Ports() - 1)
				sim.SetPortDown(c, p, true)
				downs = append(downs, struct {
					c geom.Coord
					p int
				}{c, p})
			}
			if cyc%41 == 23 && len(downs) > 0 {
				d := downs[0]
				downs = downs[1:]
				sim.SetPortDown(d.c, d.p, false)
			}
			src := geom.C(rng.Intn(g.W), rng.Intn(g.H))
			dst := geom.C(rng.Intn(g.W), rng.Intn(g.H))
			if src != dst {
				sim.Inject(Network(rng.Intn(2)), src, dst, Request, uint32(cyc), uint64(cyc))
			}
			step()
		}
		for _, d := range downs {
			sim.SetPortDown(d.c, d.p, false)
		}
		for i := 0; i < 20000 && !sim.Drained(); i++ {
			step()
		}
		if !sim.Drained() {
			t.Fatalf("%s: port-down scenario did not drain", sim.topo.Name())
		}
		return sim.Stats(), *delivered, sim.Cycle()
	}
	for _, name := range newTopologies {
		pkts, topo := runTopoScenario(t, name, scenario{grid: g, seed: 1707, cycles: 500}, portDown)
		requireRouteHops(t, topo, pkts)
	}
}
