package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// This file holds the non-mesh topologies, which have no reference
// engine, to an oracle: the engine run straight through. The same
// scenario continued on a Fork taken mid-run must match it bit for bit
// across uniform traffic, construction faults, runtime chaos, depth-1
// backpressure and topology-specific port outages.

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
	sim.RetainDelivered = true
	return sim
}

// diffTopoForked runs the scenario on the named topology straight
// through (the oracle) and continued on a Fork taken at cycle forkAt,
// and requires bit-identical outcomes.
func diffTopoForked(t *testing.T, name string, s scenario, forkAt int) {
	t.Helper()
	cfg := s.simConfig()
	wantSt, wantPkts, wantCycles := runScenario(t, s, newTopoSim(t, name, s, cfg))
	s.forkAt = forkAt
	st, pkts, cycles := runScenario(t, s, newTopoSim(t, name, s, cfg))
	requireSameRun(t, name+" forked vs straight", st, pkts, cycles, wantSt, wantPkts, wantCycles)
}

// newTopologies are the non-mesh topologies (the mesh is held to the
// reference engine in refsim_test.go).
var newTopologies = []string{TopoCMesh, TopoExpress, TopoVertical}

func TestTopoForkDifferentialUniform(t *testing.T) {
	for _, name := range newTopologies {
		diffTopoForked(t, name, scenario{
			grid: geom.NewGrid(12, 12), faults: 0, seed: 1101,
			cycles: 600, injectProb: 0.9,
		}, 300)
	}
}

func TestTopoForkDifferentialFaultyMap(t *testing.T) {
	for _, name := range newTopologies {
		diffTopoForked(t, name, scenario{
			grid: geom.NewGrid(10, 10), faults: 7, seed: 1202,
			cycles: 500, injectProb: 0.8,
		}, 250)
	}
}

func TestTopoForkDifferentialChaos(t *testing.T) {
	// Runtime kills, mesh-direction link flaps, bit errors and relay
	// forwards: the fault-injection layer mapped onto each generalized
	// link graph.
	for _, name := range newTopologies {
		diffTopoForked(t, name, scenario{
			grid: geom.NewGrid(10, 10), faults: 3, seed: 1303,
			cycles: 500, injectProb: 0.85, chaos: true, forwardMod: 4,
		}, 250)
	}
}

func TestTopoForkDifferentialBackpressure(t *testing.T) {
	// Depth-1 FIFOs under saturating load on a ragged (non-multiple)
	// grid: every FIFO is full at the fork, and CMesh/express exercise
	// partial blocks and clipped express rows.
	for _, name := range newTopologies {
		diffTopoForked(t, name, scenario{
			grid: geom.NewGrid(11, 10), faults: 0, seed: 1505,
			cycles: 800, injectProb: 1.0, fifoDepth: 1,
		}, 400)
	}
}

// TestTopoPortDownDifferential downs and raises topology-specific link
// ports (express lanes, CMesh spokes, vertical links) mid-run via
// SetPortDown — beyond the mesh-direction flaps runScenario drives —
// and requires a run continued on a Fork taken with ports down to
// track the run straight through.
func TestTopoPortDownDifferential(t *testing.T) {
	for _, name := range newTopologies {
		g := geom.NewGrid(12, 12)
		topoA, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(forkAt int) (SimStats, []Packet, int64) {
			sim, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), topoA)
			if err != nil {
				t.Fatal(err)
			}
			sim.RetainDelivered = true
			rng := rand.New(rand.NewSource(1707))
			var downs []struct {
				c geom.Coord
				p int
			}
			for cyc := 0; cyc < 500; cyc++ {
				if cyc == forkAt {
					sim = sim.Fork(sim.fm.Clone())
				}
				if cyc%29 == 11 {
					c := geom.C(rng.Intn(g.W), rng.Intn(g.H))
					p := rng.Intn(topoA.Ports() - 1)
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
				sim.Step()
			}
			for _, d := range downs {
				sim.SetPortDown(d.c, d.p, false)
			}
			if err := sim.RunUntilDrained(20000); err != nil {
				t.Fatalf("%s forkAt=%d: %v", name, forkAt, err)
			}
			return sim.Stats(), sim.Delivered(), sim.Cycle()
		}
		wantSt, wantPkts, wantCycles := run(-1)
		if wantSt.Delivered == 0 {
			t.Fatalf("%s: port-down scenario delivered nothing", name)
		}
		st, pkts, cycles := run(250)
		requireSameRun(t, name+" forked vs straight", st, pkts, cycles, wantSt, wantPkts, wantCycles)
	}
}

// TestTopoForkBitIdentical pins Fork on non-mesh topologies: a fork
// taken mid-run must finish bit-identically to its original (stats and
// delivered stream), including the topology-sized round-robin and FIFO
// state — the regression this guards is a fork sharing or truncating
// the per-port slabs.
func TestTopoForkBitIdentical(t *testing.T) {
	for _, name := range newTopologies {
		g := geom.NewGrid(10, 10)
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		fm := fault.Random(g, 4, rand.New(rand.NewSource(1809)))
		sim, err := NewSimTopology(fm, DefaultSimConfig(), topo)
		if err != nil {
			t.Fatal(err)
		}
		sim.RetainDelivered = true
		rng := rand.New(rand.NewSource(1901))
		inject := func(s *Sim, r *rand.Rand, cyc int) {
			src := geom.C(r.Intn(g.W), r.Intn(g.H))
			dst := geom.C(r.Intn(g.W), r.Intn(g.H))
			if src != dst && fm.Healthy(src) && fm.Healthy(dst) {
				s.Inject(Network(r.Intn(2)), src, dst, Request, uint32(cyc), uint64(cyc)*7)
			}
		}
		for cyc := 0; cyc < 300; cyc++ {
			inject(sim, rng, cyc)
			sim.Step()
		}
		fork := sim.Fork(fm.Clone())
		// Drive original and fork through the identical suffix.
		suffix := rng.Int63()
		rngA, rngB := rand.New(rand.NewSource(suffix)), rand.New(rand.NewSource(suffix))
		for cyc := 300; cyc < 500; cyc++ {
			inject(sim, rngA, cyc)
			inject(fork, rngB, cyc)
			sim.Step()
			fork.Step()
		}
		if err := sim.RunUntilDrained(20000); err != nil {
			t.Fatal(err)
		}
		if err := fork.RunUntilDrained(20000); err != nil {
			t.Fatal(err)
		}
		if sim.Stats() != fork.Stats() {
			t.Errorf("%s: fork stats diverge:\n  fork     %+v\n  original %+v", name, fork.Stats(), sim.Stats())
		}
		a, b := sim.Delivered(), fork.Delivered()
		if len(a) != len(b) {
			t.Fatalf("%s: fork delivered lengths diverge: %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: fork delivered packet %d diverges:\n  fork     %+v\n  original %+v", name, i, b[i], a[i])
			}
		}
	}
}
