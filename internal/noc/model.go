package noc

import (
	"context"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// LatencyModel is the pluggable timing backend behind the NoC-facing
// analyses: the cycle-accurate Sim and the closed-form model in
// noc/analytical answer the same questions — saturation throughput
// and latency-throughput curves over a fault map — behind this seam,
// so sweeps pick a backend per run.
// Backends are never interchangeable silently: every result carries
// ModelName, and the serve layer keys approximate and exact runs as
// different specs.
type LatencyModel interface {
	// ModelName identifies the backend ("cycle" or "analytical"); it
	// labels results and separates cache keys.
	ModelName() string
	// Grid returns the tile array the model was built over.
	Grid() geom.Grid
	// SaturationRate returns the per-tile injection rate (both networks
	// combined) at which delivered throughput plateaus.
	SaturationRate() float64
	// ThroughputCurve evaluates the latency-throughput sweep at the
	// offered rates, one ThroughputPoint per rate.
	ThroughputCurve(ctx context.Context, rates []float64) ([]ThroughputPoint, error)
}

// The backend names results are labeled with.
const (
	ModelNameCycle      = "cycle"
	ModelNameAnalytical = "analytical"
)

// ProbeThroughputConfig returns the compact measurement window the DSE
// drivers use for per-design-point NoC probes: large enough to reach
// steady state on the array sizes the sweeps visit, small enough that
// a cycle-accurate probe stays in the tens of milliseconds. The
// full-length DefaultThroughputConfig remains the reference window for
// standalone throughput jobs and the accuracy suite.
func ProbeThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Sim:           DefaultSimConfig(),
		WarmupCycles:  80,
		MeasureCycles: 240,
		Seed:          1,
	}
}

// CycleModel adapts the cycle-accurate packet simulator to the
// LatencyModel seam — the exact oracle the analytical backend is
// validated against. Every query runs real seeded simulations, so it
// is deterministic and as expensive as the engine underneath.
type CycleModel struct {
	FM  *fault.Map
	Cfg ThroughputConfig // measurement window (incl. Topology); zero value -> Default
}

// ModelName implements LatencyModel.
func (m *CycleModel) ModelName() string { return ModelNameCycle }

// Grid implements LatencyModel.
func (m *CycleModel) Grid() geom.Grid { return m.FM.Grid() }

func (m *CycleModel) cfg() ThroughputConfig {
	cfg := m.Cfg
	if cfg.Sim.FIFODepth == 0 && cfg.Sim.LinkLatency == 0 {
		cfg.Sim = DefaultSimConfig()
	}
	if cfg.WarmupCycles == 0 && cfg.MeasureCycles == 0 {
		cfg.WarmupCycles, cfg.MeasureCycles = 500, 1500
	}
	return cfg
}

// SaturationRate measures the delivered-throughput plateau by offering
// well past the topology's bisection-style bound.
func (m *CycleModel) SaturationRate() float64 {
	offered := 1.5 * IdealSaturation(m.Cfg.Topology, m.FM.Grid())
	if offered > 1 {
		offered = 1
	}
	pts, err := MeasureThroughput(m.FM, m.cfg(), []float64{offered})
	if err != nil || len(pts) == 0 {
		return 0
	}
	return pts[0].DeliveredRate
}

// ThroughputCurve implements LatencyModel; rate points are measured
// one at a time so cancellation lands between rates and per-rate
// results match the batched sweep exactly.
func (m *CycleModel) ThroughputCurve(ctx context.Context, rates []float64) ([]ThroughputPoint, error) {
	out := make([]ThroughputPoint, 0, len(rates))
	for _, rate := range rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pts, err := MeasureThroughput(m.FM, m.cfg(), []float64{rate})
		if err != nil {
			return nil, err
		}
		out = append(out, pts[0])
	}
	return out, nil
}
