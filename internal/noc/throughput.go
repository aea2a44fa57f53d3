package noc

import (
	"math/rand"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Latency-throughput characterization of the waferscale mesh: uniform
// random traffic is offered at a per-tile injection rate and the
// delivered throughput and latency are measured in steady state. This
// is the standard NoC experiment behind the paper's bandwidth
// provisioning (four 100-bit buses per tile edge): below saturation
// the network delivers what is offered at low latency; past saturation
// delivery plateaus near the bisection limit and latency grows without
// bound.
type ThroughputPoint struct {
	OfferedRate   float64 // packets per tile per cycle attempted
	DeliveredRate float64 // packets per tile per cycle delivered
	AvgLatency    float64 // cycles, over packets delivered in the window
	Backpressured float64 // fraction of injection attempts refused
}

// ThroughputConfig parametrizes the sweep.
type ThroughputConfig struct {
	Sim           SimConfig
	WarmupCycles  int
	MeasureCycles int
	Seed          int64
	// Topology names the link graph to measure ("" = mesh); see
	// NewTopology.
	Topology string
}

// DefaultThroughputConfig returns a steady-state measurement window.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Sim:           DefaultSimConfig(),
		WarmupCycles:  500,
		MeasureCycles: 1500,
		Seed:          1,
	}
}

// MeasureThroughput runs the sweep over the offered rates on the fault
// map's healthy tiles. Traffic is uniform random with requests split
// evenly across the two networks.
func MeasureThroughput(fm *fault.Map, cfg ThroughputConfig, rates []float64) ([]ThroughputPoint, error) {
	var topo Topology
	if cfg.Topology != "" {
		var err error
		if topo, err = NewTopology(cfg.Topology, fm.Grid()); err != nil {
			return nil, err
		}
	}
	healthy := fm.HealthyCoords()
	out := make([]ThroughputPoint, 0, len(rates))
	for _, rate := range rates {
		s, err := NewSimTopology(fm, cfg.Sim, topo)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var (
			measuring         bool
			deliveredInWindow int
			latencyInWindow   int64
			attempts, refused int
		)
		s.OnDeliver = func(p Packet) {
			if measuring {
				deliveredInWindow++
				latencyInWindow += p.Latency()
			}
		}
		total := cfg.WarmupCycles + cfg.MeasureCycles
		for cyc := 0; cyc < total; cyc++ {
			if cyc == cfg.WarmupCycles {
				measuring = true
			}
			for _, src := range healthy {
				if rng.Float64() >= rate {
					continue
				}
				dst := healthy[rng.Intn(len(healthy))]
				if dst == src {
					continue
				}
				net := Network(rng.Intn(2))
				if measuring {
					attempts++
				}
				if _, err := s.Inject(net, src, dst, Request, 0, 0); err != nil && measuring {
					refused++
				}
			}
			s.Step()
		}
		window := float64(cfg.MeasureCycles) * float64(len(healthy))
		pt := ThroughputPoint{
			OfferedRate:   rate,
			DeliveredRate: float64(deliveredInWindow) / window,
		}
		if deliveredInWindow > 0 {
			pt.AvgLatency = float64(latencyInWindow) / float64(deliveredInWindow)
		}
		if attempts > 0 {
			pt.Backpressured = float64(refused) / float64(attempts)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SaturationRate returns the delivered-throughput plateau: the highest
// delivered rate across the sweep.
func SaturationRate(points []ThroughputPoint) float64 {
	max := 0.0
	for _, p := range points {
		if p.DeliveredRate > max {
			max = p.DeliveredRate
		}
	}
	return max
}

// TheoreticalSaturation returns the uniform-random saturation bound of
// an NxN mesh pair: with uniform traffic half the packets cross the
// bisection, which carries 2 links per row per network per direction,
// so per-tile injection caps at 2 * 2 * 2 * N / N^2 = 8/N packets per
// cycle (both networks combined).
func TheoreticalSaturation(grid geom.Grid) float64 {
	n := float64(grid.W)
	return 8 / n
}

// IdealSaturation returns a closed-form bisection-style saturation
// bound for the named topology ("" = mesh) — the probe-rate anchor the
// cycle-accurate backends offer traffic against. It is a coarse upper
// bound chosen per topology's capacity: CMesh halves the cross links;
// the vertical fold leaves the binding east-west cut unchanged; the
// express mesh adds cut links but each express link is credit-limited
// to half a packet per cycle (a length-4 flight against a 4-deep
// downstream FIFO), which nets out to ~0.8x the mesh bound — the
// exact per-fault-map value is the analytical model's ideal
// (allocator-efficiency-free) saturation rate.
func IdealSaturation(topology string, grid geom.Grid) float64 {
	base := TheoreticalSaturation(grid)
	name, err := NormalizeTopology(topology)
	if err != nil {
		name = TopoMesh
	}
	s := base
	switch name {
	case TopoCMesh:
		s = base / 2
	case TopoExpress:
		s = 0.8 * base
	}
	if s > 1 {
		s = 1
	}
	return s
}
