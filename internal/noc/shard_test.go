package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// shardEveryCycle sets the sim's shard count and, when it is above 1,
// makes every cycle step on the sharded engine, which Step otherwise
// leaves unused, so a differential holds that engine to the serial one.
func shardEveryCycle(s *Sim, shards int) {
	s.Shards = shards
	s.forceShard = true
}

// diffSharded runs the scenario on the serial engine (the oracle) and
// on the sharded engine, forced on every cycle, and requires
// bit-identical stats, delivered streams and cycle counts — the
// determinism contract of the spatial decomposition: shard and worker
// counts are wall-clock knobs only.
func diffSharded(t *testing.T, s scenario, shards, workers int) {
	t.Helper()
	cfg := s.simConfig()

	serial, err := NewSim(fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial.RetainDelivered = true
	if s.oddEven {
		serial.Policy = OddEvenPolicy{}
	}
	serStats, serPkts, serCycles := runScenario(t, s, serial)

	sharded, err := NewSim(fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	sharded.RetainDelivered = true
	shardEveryCycle(sharded, shards)
	sharded.Workers = workers
	if s.oddEven {
		sharded.Policy = OddEvenPolicy{}
	}
	shStats, shPkts, shCycles := runScenario(t, s, sharded)

	if shStats != serStats {
		t.Errorf("shards=%d workers=%d: stats diverge:\n  sharded %+v\n  serial  %+v",
			shards, workers, shStats, serStats)
	}
	if shCycles != serCycles {
		t.Errorf("shards=%d workers=%d: cycle counts diverge: sharded %d, serial %d",
			shards, workers, shCycles, serCycles)
	}
	if len(shPkts) != len(serPkts) {
		t.Fatalf("shards=%d workers=%d: delivered streams diverge in length: sharded %d, serial %d",
			shards, workers, len(shPkts), len(serPkts))
	}
	for i := range shPkts {
		if shPkts[i] != serPkts[i] {
			t.Fatalf("shards=%d workers=%d: delivered packet %d diverges:\n  sharded %+v\n  serial  %+v",
				shards, workers, i, shPkts[i], serPkts[i])
		}
	}
}

// shardCounts covers a degenerate band count, even splits and a
// non-divisor count (7 does not divide any of the test grids' heights,
// so the bands are uneven).
var shardCounts = []int{1, 2, 4, 7}

func TestShardedDifferentialUniform(t *testing.T) {
	for _, shards := range shardCounts {
		diffSharded(t, scenario{
			grid: geom.NewGrid(12, 12), faults: 0, seed: 101,
			cycles: 1000, injectProb: 0.9,
		}, shards, 0)
	}
}

func TestShardedDifferentialFaultyMap(t *testing.T) {
	for _, shards := range shardCounts {
		diffSharded(t, scenario{
			grid: geom.NewGrid(10, 10), faults: 7, seed: 202,
			cycles: 900, injectProb: 0.8,
		}, shards, 0)
	}
}

func TestShardedDifferentialChaos(t *testing.T) {
	for _, shards := range shardCounts {
		diffSharded(t, scenario{
			grid: geom.NewGrid(10, 10), faults: 3, seed: 303,
			cycles: 700, injectProb: 0.85, chaos: true, forwardMod: 4,
		}, shards, 0)
	}
}

func TestShardedDifferentialBackpressure(t *testing.T) {
	// Depth-1 FIFOs under saturating load: credit grants cross band
	// boundaries every cycle, the worst case for the single-writer
	// credit-counter argument.
	for _, shards := range shardCounts {
		diffSharded(t, scenario{
			grid: geom.NewGrid(6, 6), faults: 0, seed: 505,
			cycles: 1500, injectProb: 1.0, fifoDepth: 1,
		}, shards, 0)
	}
}

func TestShardedDifferentialOddEven(t *testing.T) {
	// The adaptive policy offers multiple candidate ports; allocation
	// order must still match the serial engine exactly.
	diffSharded(t, scenario{
		grid: geom.NewGrid(9, 9), faults: 0, seed: 404,
		cycles: 800, injectProb: 0.9, oddEven: true,
	}, 3, 0)
}

// TestShardedWorkerCountIrrelevant pins the worker knob as pure
// wall-clock: the same shard count must agree with the oracle at
// width 1, a non-divisor width and the GOMAXPROCS default.
func TestShardedWorkerCountIrrelevant(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		diffSharded(t, scenario{
			grid: geom.NewGrid(10, 10), faults: 2, seed: 707,
			cycles: 600, injectProb: 0.9,
		}, 4, workers)
	}
}

// TestShardedReshardMidRun changes the Shards/Workers knobs between
// cycles of a live run; the engine must rebuild its bands and still
// track the serial oracle bit-for-bit.
func TestShardedReshardMidRun(t *testing.T) {
	g := geom.NewGrid(8, 8)
	mk := func() *Sim {
		s, err := NewSim(fault.Random(g, 2, rand.New(rand.NewSource(808))), DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.RetainDelivered = true
		return s
	}
	serial, sharded := mk(), mk()
	defer sharded.Close()
	rng := rand.New(rand.NewSource(909))
	schedule := []int{1, 3, 2, 7, 4, 1, 5}
	for phase, shards := range schedule {
		shardEveryCycle(sharded, shards)
		sharded.Workers = 1 + phase%3
		for cyc := 0; cyc < 120; cyc++ {
			src := geom.Coord{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
			dst := geom.Coord{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
			net := Network(rng.Intn(2))
			if src != dst && serial.fm.Healthy(src) && serial.fm.Healthy(dst) {
				_, err1 := serial.Inject(net, src, dst, Request, uint32(cyc), uint64(cyc))
				_, err2 := sharded.Inject(net, src, dst, Request, uint32(cyc), uint64(cyc))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("phase %d cyc %d: inject outcomes diverge: %v vs %v", phase, cyc, err1, err2)
				}
			}
			serial.Step()
			sharded.Step()
		}
	}
	for !serial.Drained() || !sharded.Drained() {
		if serial.Cycle() > 100000 {
			t.Fatal("drain did not terminate")
		}
		serial.Step()
		sharded.Step()
	}
	if serial.Stats() != sharded.Stats() {
		t.Errorf("stats diverge after resharding:\n  sharded %+v\n  serial  %+v", sharded.Stats(), serial.Stats())
	}
	ser, sh := serial.Delivered(), sharded.Delivered()
	if len(ser) != len(sh) {
		t.Fatalf("delivered lengths diverge: %d vs %d", len(sh), len(ser))
	}
	for i := range ser {
		if ser[i] != sh[i] {
			t.Fatalf("delivered packet %d diverges: %+v vs %+v", i, sh[i], ser[i])
		}
	}
}

// TestShardedCloseIsReusable checks Close between steps only tears down
// the gang: further Steps re-create it and stay correct.
func TestShardedCloseIsReusable(t *testing.T) {
	g := geom.NewGrid(6, 6)
	s, err := NewSim(fault.NewMap(g), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shardEveryCycle(s, 3)
	if _, err := s.Inject(XY, geom.Coord{X: 0, Y: 0}, geom.Coord{X: 5, Y: 5}, Request, 1, 42); err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Close()
	if err := s.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", s.Stats().Delivered)
	}
}
