package sim

import (
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
	"waferscale/internal/noc/analytical"
)

func attachAnalytical(t *testing.T, m *Machine, fm *fault.Map) {
	t.Helper()
	model, err := analytical.NewForTopology(noc.TopoMesh, fm)
	if err != nil {
		t.Fatal(err)
	}
	m.LatencyModel = model
}

// A modeled machine must compute exactly what the cycle-exact machine
// computes — the approximation changes timing, never results.
func TestModeledMatVecMatchesExact(t *testing.T) {
	cfg := smallConfig()
	a, x := RandomMatrix(12, 5)
	want := ReferenceMatVec(a, x)

	exact := newMachine(t, cfg, nil)
	_, exactRes, err := RunMatVec(exact, a, x, SpreadWorkers(exact, 8), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}

	approx := newMachine(t, cfg, nil)
	attachAnalytical(t, approx, fault.NewMap(cfg.Grid()))
	y, approxRes, err := RunMatVec(approx, a, x, SpreadWorkers(approx, 8), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %d, want %d", i, y[i], want[i])
		}
	}
	if approx.TimingModelName() != noc.ModelNameAnalytical {
		t.Fatalf("timing model %q, want %q", approx.TimingModelName(), noc.ModelNameAnalytical)
	}
	if exact.TimingModelName() != noc.ModelNameCycle {
		t.Fatalf("timing model %q, want %q", exact.TimingModelName(), noc.ModelNameCycle)
	}
	// The modeled run must still price remote traffic: nonzero round
	// trips, in the same order of magnitude as the measured engine.
	if approx.RemoteRequests == 0 {
		t.Fatal("modeled run recorded no remote requests")
	}
	me, ma := exact.AvgRemoteLatency(), approx.AvgRemoteLatency()
	if ma <= 0 {
		t.Fatalf("modeled avg remote latency %.1f, want > 0", ma)
	}
	if ma < me/4 || ma > me*4 {
		t.Errorf("modeled avg remote latency %.1f vs exact %.1f: more than 4x apart", ma, me)
	}
	if exactRes.Cycles == 0 || approxRes.Cycles == 0 {
		t.Fatal("zero-cycle run")
	}
}

// Atomics-heavy contention: histogram counts must be exact under the
// model too (effects apply at issue, still serialized per cycle).
func TestModeledHistogramMatchesExact(t *testing.T) {
	cfg := smallConfig()
	data := make([]int32, 256)
	for i := range data {
		data[i] = int32((i * 7) % 16)
	}
	want := ReferenceHistogram(data, 16)
	m := newMachine(t, cfg, nil)
	attachAnalytical(t, m, fault.NewMap(cfg.Grid()))
	bins, _, err := RunHistogram(m, data, 16, SpreadWorkers(m, 12), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins[%d] = %d, want %d", i, bins[i], want[i])
		}
	}
}

// A modeled run on a faulted map must fault cores whose targets are
// unreachable and complete ops that route around the damage, mirroring
// the cycle engine's reachability verdicts.
func TestModeledRunWithFaults(t *testing.T) {
	cfg := smallConfig()
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(1, 1))
	fm.MarkFaulty(geom.C(2, 2))
	m, err := NewMachine(cfg, fm)
	if err != nil {
		t.Fatal(err)
	}
	attachAnalytical(t, m, fm)
	a, x := RandomMatrix(8, 11)
	want := ReferenceMatVec(a, x)
	y, _, err := RunMatVec(m, a, x, SpreadWorkers(m, 6), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %d, want %d (faulted map)", i, y[i], want[i])
		}
	}
}

// Snapshot/fork must carry the attached model: a fork of a modeled
// machine keeps producing modeled timing and exact results.
func TestModeledSnapshotFork(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	attachAnalytical(t, m, fault.NewMap(cfg.Grid()))
	m.LatencyRate = 0.01
	fork := m.Snapshot().Fork()
	if fork.TimingModelName() != noc.ModelNameAnalytical {
		t.Fatalf("fork timing model %q, want %q", fork.TimingModelName(), noc.ModelNameAnalytical)
	}
	if fork.LatencyRate != 0.01 {
		t.Fatalf("fork latency rate %v, want 0.01", fork.LatencyRate)
	}
	a, x := RandomMatrix(8, 3)
	want := ReferenceMatVec(a, x)
	y, _, err := RunMatVec(fork, a, x, SpreadWorkers(fork, 4), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("fork y[%d] = %d, want %d", i, y[i], want[i])
		}
	}
}
