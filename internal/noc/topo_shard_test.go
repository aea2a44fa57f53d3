package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// This file extends the refsim/shard differential pattern to the
// non-mesh topologies: for each shipped topology, the sharded engine
// must be bit-identical to the serial engine (the oracle) across
// uniform traffic, construction faults, runtime chaos and depth-1
// backpressure, at every shard count in shardCounts — the same
// determinism contract the mesh is pinned to.

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

// diffTopoSharded runs the scenario on the named topology twice —
// serial oracle and sharded — and requires bit-identical stats,
// delivered streams and cycle counts.
func diffTopoSharded(t *testing.T, name string, s scenario, shards, workers int) {
	t.Helper()
	cfg := s.simConfig()

	serial := newTopoSim(t, name, s, cfg)
	serStats, serPkts, serCycles := runScenario(t, s, serial)

	sharded := newTopoSim(t, name, s, cfg)
	defer sharded.Close()
	shardEveryCycle(sharded, shards)
	sharded.Workers = workers
	shStats, shPkts, shCycles := runScenario(t, s, sharded)

	if shStats != serStats {
		t.Errorf("%s shards=%d: stats diverge:\n  sharded %+v\n  serial  %+v", name, shards, shStats, serStats)
	}
	if shCycles != serCycles {
		t.Errorf("%s shards=%d: cycle counts diverge: sharded %d, serial %d", name, shards, shCycles, serCycles)
	}
	if len(shPkts) != len(serPkts) {
		t.Fatalf("%s shards=%d: delivered streams diverge in length: sharded %d, serial %d",
			name, shards, len(shPkts), len(serPkts))
	}
	for i := range shPkts {
		if shPkts[i] != serPkts[i] {
			t.Fatalf("%s shards=%d: delivered packet %d diverges:\n  sharded %+v\n  serial  %+v",
				name, shards, i, shPkts[i], serPkts[i])
		}
	}
}

// newTopologies are the non-mesh topologies (the mesh has its own
// differential suite in shard_test.go / refsim_test.go).
var newTopologies = []string{TopoCMesh, TopoExpress, TopoVertical}

func TestTopoShardedDifferentialUniform(t *testing.T) {
	for _, name := range newTopologies {
		for _, shards := range shardCounts {
			diffTopoSharded(t, name, scenario{
				grid: geom.NewGrid(12, 12), faults: 0, seed: 1101,
				cycles: 600, injectProb: 0.9,
			}, shards, 0)
		}
	}
}

func TestTopoShardedDifferentialFaultyMap(t *testing.T) {
	for _, name := range newTopologies {
		for _, shards := range shardCounts {
			diffTopoSharded(t, name, scenario{
				grid: geom.NewGrid(10, 10), faults: 7, seed: 1202,
				cycles: 500, injectProb: 0.8,
			}, shards, 0)
		}
	}
}

func TestTopoShardedDifferentialChaos(t *testing.T) {
	// Runtime kills, mesh-direction link flaps, bit errors and relay
	// forwards: the fault-injection layer mapped onto each generalized
	// link graph.
	for _, name := range newTopologies {
		for _, shards := range shardCounts {
			diffTopoSharded(t, name, scenario{
				grid: geom.NewGrid(10, 10), faults: 3, seed: 1303,
				cycles: 500, injectProb: 0.85, chaos: true, forwardMod: 4,
			}, shards, 0)
		}
	}
}

func TestTopoShardedDifferentialBackpressure(t *testing.T) {
	// Depth-1 FIFOs under saturating load on a ragged (non-multiple)
	// grid: credit reservations cross band boundaries every cycle, and
	// CMesh/express exercise partial blocks and clipped express rows.
	for _, name := range newTopologies {
		for _, shards := range shardCounts {
			diffTopoSharded(t, name, scenario{
				grid: geom.NewGrid(11, 10), faults: 0, seed: 1505,
				cycles: 800, injectProb: 1.0, fifoDepth: 1,
			}, shards, 0)
		}
	}
}

// TestTopoPortDownDifferential downs and raises topology-specific link
// ports (express lanes, CMesh spokes, vertical links) mid-run via
// SetPortDown — beyond the mesh-direction flaps runScenario drives —
// and requires the sharded engine to track the serial oracle through
// the outages.
func TestTopoPortDownDifferential(t *testing.T) {
	for _, name := range newTopologies {
		g := geom.NewGrid(12, 12)
		topoA, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(shards int) (SimStats, []Packet) {
			sim, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), topoA)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			sim.RetainDelivered = true
			shardEveryCycle(sim, shards)
			rng := rand.New(rand.NewSource(1707))
			var downs []struct {
				c geom.Coord
				p int
			}
			for cyc := 0; cyc < 500; cyc++ {
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
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			return sim.Stats(), sim.Delivered()
		}
		serStats, serPkts := run(1)
		if serStats.Delivered == 0 {
			t.Fatalf("%s: port-down scenario delivered nothing", name)
		}
		for _, shards := range shardCounts[1:] {
			shStats, shPkts := run(shards)
			if shStats != serStats {
				t.Errorf("%s shards=%d: stats diverge:\n  sharded %+v\n  serial  %+v", name, shards, shStats, serStats)
			}
			if len(shPkts) != len(serPkts) {
				t.Fatalf("%s shards=%d: delivered lengths diverge: %d vs %d", name, shards, len(shPkts), len(serPkts))
			}
			for i := range shPkts {
				if shPkts[i] != serPkts[i] {
					t.Fatalf("%s shards=%d: delivered packet %d diverges", name, shards, i)
				}
			}
		}
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
