package sim

import (
	"context"
	"math/rand"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// TestMatVecOnMachine: y = A*x computed by WS-ISA workers matches the
// host reference.
func TestMatVecOnMachine(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	a, x := RandomMatrix(20, 3)
	y, res, err := RunMatVec(m, a, x, AllWorkers(m, 10), 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatVec(a, x)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %d, want %d", i, y[i], want[i])
		}
	}
	if res.Cycles <= 0 || res.Instructions <= 0 {
		t.Errorf("stats = %+v", res)
	}
}

// TestMatVecNegativeValues: signed arithmetic through mul/add.
func TestMatVecNegativeValues(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	a := [][]int32{{-1, 2}, {3, -4}}
	x := []int32{-5, 6}
	y, _, err := RunMatVec(m, a, x, AllWorkers(m, 2), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 17 || y[1] != -39 {
		t.Errorf("y = %v, want [17 -39]", y)
	}
}

func TestMatVecValidation(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if _, _, err := RunMatVec(m, nil, nil, AllWorkers(m, 1), 1000); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, _, err := RunMatVec(m, [][]int32{{1, 2}}, []int32{1, 2}, AllWorkers(m, 1), 1000); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, _, err := RunMatVec(m, [][]int32{{1}}, []int32{1}, nil, 1000); err == nil {
		t.Error("no workers accepted")
	}
}

// TestHistogramOnMachine: shared-bin counting with amoadd contention
// must be exact — the atomics-under-contention stress test.
func TestHistogramOnMachine(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	rng := rand.New(rand.NewSource(9))
	data := make([]int32, 600)
	const nBins = 8
	for i := range data {
		data[i] = int32(rng.Intn(nBins))
	}
	bins, res, err := RunHistogram(m, data, nBins, AllWorkers(m, 16), 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceHistogram(data, nBins)
	total := int32(0)
	for b := range want {
		if bins[b] != want[b] {
			t.Errorf("bin %d = %d, want %d", b, bins[b], want[b])
		}
		total += bins[b]
	}
	if total != int32(len(data)) {
		t.Errorf("bin total = %d, want %d (lost updates!)", total, len(data))
	}
	if res.RemoteOps == 0 {
		t.Error("histogram should generate remote atomics")
	}
}

func TestHistogramValidation(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if _, _, err := RunHistogram(m, []int32{5}, 4, AllWorkers(m, 1), 1000); err == nil {
		t.Error("out-of-range bin accepted")
	}
	if _, _, err := RunHistogram(m, []int32{1}, 0, AllWorkers(m, 1), 1000); err == nil {
		t.Error("zero bins accepted")
	}
	if _, _, err := RunHistogram(m, []int32{1}, 4, nil, 1000); err == nil {
		t.Error("no workers accepted")
	}
}

// TestHistogramWithFaultyTile: atomics-heavy traffic still exact when
// routing around a dead tile.
func TestHistogramWithFaultyTile(t *testing.T) {
	cfg := smallConfig()
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(1, 2))
	m := newMachine(t, cfg, fm)
	data := make([]int32, 200)
	for i := range data {
		data[i] = int32(i % 5)
	}
	bins, _, err := RunHistogram(m, data, 5, AllWorkers(m, 8), 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range bins {
		if v != 40 {
			t.Errorf("bin %d = %d, want 40", b, v)
		}
	}
}

// TestMatVecScalesWithWorkers: more workers, fewer cycles.
func TestMatVecScalesWithWorkers(t *testing.T) {
	a, x := RandomMatrix(24, 5)
	run := func(w int) int64 {
		m := newMachine(t, smallConfig(), nil)
		_, res, err := RunMatVec(m, a, x, AllWorkers(m, w), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if one, twelve := run(1), run(12); twelve >= one {
		t.Errorf("12 workers (%d cycles) not faster than 1 (%d)", twelve, one)
	}
}

func TestSpreadWorkersPlacement(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	ws := SpreadWorkers(m, 16)
	if len(ws) != 16 {
		t.Fatalf("workers = %d", len(ws))
	}
	// First 16 workers on a 16-tile machine: one per tile, all core 0.
	seen := map[string]bool{}
	for _, w := range ws {
		if w.Core != 0 {
			t.Errorf("worker %v should be core 0 in the first round", w)
		}
		key := w.Tile.String()
		if seen[key] {
			t.Errorf("tile %v assigned twice in the first round", w.Tile)
		}
		seen[key] = true
	}
	// Requesting more than one round wraps to core 1.
	ws = SpreadWorkers(m, 20)
	if len(ws) != 20 || ws[16].Core != 1 {
		t.Errorf("second round = %+v", ws[16])
	}
	// Capped by total cores.
	if got := len(SpreadWorkers(m, 9999)); got != 64 {
		t.Errorf("uncappable request returned %d", got)
	}
}

// TestSpreadVsPackedRemoteTraffic: spread placement generates remote
// traffic where packed placement on the data tile does not.
func TestSpreadVsPackedRemoteTraffic(t *testing.T) {
	g := GridGraph(5, 5)
	run := func(pick func(*Machine, int) []WorkerRef) int64 {
		cfg := smallConfig()
		cfg.CoresPerTile = 14
		m := newMachine(t, cfg, nil)
		if _, err := RunBFS(m, g, 0, pick(m, 10), 20_000_000); err != nil {
			t.Fatal(err)
		}
		return m.RemoteRequests
	}
	packed := run(AllWorkers) // 10 cores, all on tile (0,0) with the data
	spread := run(SpreadWorkers)
	if packed != 0 {
		t.Errorf("packed placement produced %d remote ops; data is local", packed)
	}
	if spread == 0 {
		t.Error("spread placement produced no remote traffic")
	}
}

// newTopoMachine builds a fault-free machine on the named topology.
func newTopoMachine(t *testing.T, cfg arch.Config, topo string) *Machine {
	t.Helper()
	m, err := NewMachineTopology(cfg, fault.NewMap(cfg.Grid()), topo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMatVecAllTopologies pins the matvec kernel's results to the host
// reference on every NoC topology. Workers are spread one-per-tile so
// the traffic actually crosses the interconnect under test.
func TestMatVecAllTopologies(t *testing.T) {
	a, x := RandomMatrix(20, 3)
	want := ReferenceMatVec(a, x)
	for _, topo := range noc.TopologyNames() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			m := newTopoMachine(t, smallConfig(), topo)
			if m.TopologyName() != topo {
				t.Errorf("TopologyName = %q, want %q", m.TopologyName(), topo)
			}
			y, res, err := RunMatVec(m, a, x, SpreadWorkers(m, 10), 20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if y[i] != want[i] {
					t.Fatalf("y[%d] = %d, want %d", i, y[i], want[i])
				}
			}
			if res.RemoteOps == 0 {
				t.Error("spread workers produced no remote traffic")
			}
		})
	}
}

// TestHistogramAllTopologies: shared-bin amoadd contention stays exact
// on every topology — atomics must not lose updates regardless of how
// the packets are routed.
func TestHistogramAllTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := make([]int32, 400)
	const nBins = 8
	for i := range data {
		data[i] = int32(rng.Intn(nBins))
	}
	want := ReferenceHistogram(data, nBins)
	for _, topo := range noc.TopologyNames() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			m := newTopoMachine(t, smallConfig(), topo)
			bins, res, err := RunHistogram(m, data, nBins, SpreadWorkers(m, 12), 20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			for b := range want {
				if bins[b] != want[b] {
					t.Errorf("bin %d = %d, want %d", b, bins[b], want[b])
				}
			}
			if res.RemoteOps == 0 {
				t.Error("histogram should generate remote atomics")
			}
		})
	}
}

// TestRelayDetourNonMeshTopologies: the relay planner plans on the
// machine's own topology (see DegradationReport.Topology). Faults at
// (1,0) and (0,3) block both mesh DoR routes between (0,0) and (3,3)
// in both directions. On every topology the remote load must return
// its value with no core fault, and relays must appear exactly where
// that topology's own XY and YX routes are both blocked: requests for
// (0,0)->(3,3), responses for (3,3)->(0,0). Every topology must name
// itself in the report.
func TestRelayDetourNonMeshTopologies(t *testing.T) {
	src, dst := geom.C(0, 0), geom.C(3, 3)
	for _, topo := range noc.TopologyNames() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			cfg := smallConfig() // 4x4: vertical needs an even row count
			fm := fault.NewMap(cfg.Grid())
			fm.MarkFaulty(geom.C(1, 0))
			fm.MarkFaulty(geom.C(0, 3))
			m, err := NewMachineTopology(cfg, fm, topo)
			if err != nil {
				t.Fatal(err)
			}
			lt, err := noc.NewTopology(topo, cfg.Grid())
			if err != nil {
				t.Fatal(err)
			}
			an := noc.NewTopoAnalyzer(lt, fm)
			blocked := func(s, d geom.Coord) bool {
				return !an.PathClear(noc.XY, s, d) && !an.PathClear(noc.YX, s, d)
			}
			if topo == noc.TopoMesh && !(blocked(src, dst) && blocked(dst, src)) {
				t.Fatal("fixture no longer blocks both mesh routes")
			}
			addr := globalWindowAddr(cfg, dst)
			if err := m.WriteGlobal32(addr, 77); err != nil {
				t.Fatal(err)
			}
			c := startRemoteLoad(t, m, src, addr)
			if err := m.RunCtx(context.Background(), 20_000); err != nil {
				t.Fatalf("machine did not quiesce: %v", err)
			}
			rep := m.Degradation()
			if rep.Topology != topo {
				t.Errorf("report topology = %q, want %q", rep.Topology, topo)
			}
			if faults := m.Faults(); len(faults) > 0 {
				t.Fatalf("faults: %v", faults)
			}
			if c.Regs[2] != 77 {
				t.Errorf("loaded %d, want 77", c.Regs[2])
			}
			if got, want := rep.RelayedRequests > 0, blocked(src, dst); got != want {
				t.Errorf("relayed requests %d, want relays %v: %+v", rep.RelayedRequests, want, rep)
			}
			if got, want := rep.RelayedResponses > 0, blocked(dst, src); got != want {
				t.Errorf("relayed responses %d, want relays %v: %+v", rep.RelayedResponses, want, rep)
			}
		})
	}
}
