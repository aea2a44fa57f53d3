// Package analytical is the closed-form fast path behind the
// noc.LatencyModel seam: a queueing-style timing model of any shipped
// noc.Topology that answers the cycle engine's questions — mean
// latency under load, link utilization, saturation throughput,
// fault-aware reachability — without stepping cycles. A model is
// built once per design point; every query after that is O(links) or
// cheaper. A whole latency-throughput curve, build included, costs
// ~10^3x less than measuring it on the packet simulation
// (BenchmarkAnalyticalThroughput vs BenchmarkNoCThroughput/mesh), which
// lets the two-tier DSE screen hundreds of candidates before the
// cycle-accurate engine verifies the survivors.
//
// There is one model type, Model, built by NewForTopology. It has three
// layers:
//
//  1. Traffic marginals. Under uniform random traffic every healthy
//     tile injects at per-tile rate r, splitting packets evenly across
//     the two networks with destinations uniform over the other
//     healthy tiles. Routes are deterministic functions of (network,
//     current tile, destination), so the expected crossing rate of
//     every (tile, port) link is an exact count of the ordered pairs
//     whose route uses it. Packets that will later be dropped at a
//     fault still load the links they traverse first; the crossing
//     into the faulty tile itself is not counted. The counts come from
//     one of two builds that produce identical counts on the mesh
//     (TestTopoModelMatchesMeshModel):
//     - the mesh: row/column prefix sums of healthy tiles and their
//     fault-free runs, O(1) per link and O(tiles) per model;
//     - every other topology: source counts flowed down the in-tree of
//     routes toward each destination, O(tiles) per destination and
//     O(tiles^2) per model.
//
//  2. Queueing. Each link serves at most one packet per cycle, or less
//     when the downstream FIFO's credits run out on a long link, so a
//     link with utilization rho adds an M/D/1-style queueing wait
//     rho/(2(1-rho)) per crossing; the same term applied to the
//     ejection port models destination contention. Utilization is
//     clamped below 1 so post-saturation queries stay finite (the cycle
//     engine's latency diverges there; the model's clamped value just
//     means "saturated").
//
//  3. Aggregates. Saturation is the injection rate at which the
//     hottest link reaches service capacity: the ideal bound (for the
//     fault-free N x N mesh exactly the 8/N bisection bound of
//     noc.TheoreticalSaturation) scaled by a per-topology calibrated
//     switch allocation efficiency (see DefaultTopoAllocEfficiency).
//     Delivered throughput is the offered rate capped at saturation and
//     scaled by the exact fraction of fault-free source-destination
//     paths.
//
// The model mirrors the router parameters of noc.DefaultSimConfig.
// Accuracy against the cycle engine is measured, not assumed — see
// accuracy_test.go for the pinned tolerances.
package analytical

import (
	"context"
	"fmt"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// DefaultAllocEfficiency is the switch-allocation efficiency of the
// input-buffered mesh router. Like pdn.DefaultSheetResistanceOhm it is
// calibrated once — against the cycle engine's measured 16x16
// delivered-throughput plateau, which lands at ~71-78% of the ideal
// bisection bound (the classic head-of-line/allocation loss of
// input-queued switches) — while the *shape* of the capacity and
// latency surfaces over array size, fault maps and load comes entirely
// from the traffic marginals.
const DefaultAllocEfficiency = 0.75

// maxUtilization clamps per-link utilization inside the queueing terms
// so saturated queries return large-but-finite latencies.
const maxUtilization = 0.97

// DefaultTopoAllocEfficiency returns the calibrated switch-allocation
// efficiency for a topology name, calibrated once per topology against
// the cycle engine's measured fault-free 16x16 delivered-throughput
// plateau (measured/capacity-normalized ideal: mesh 0.713, cmesh 0.525,
// express 0.731, vertical 0.740). The mesh gets DefaultAllocEfficiency.
// Concentration funnels four tiles' traffic through one input-buffered
// hub, costing extra head-of-line loss; express and vertical links keep
// the mesh's allocator geometry on the hot links and calibrate close to
// it.
func DefaultTopoAllocEfficiency(topology string) float64 {
	name, err := noc.NormalizeTopology(topology)
	if err != nil {
		return DefaultAllocEfficiency
	}
	switch name {
	case noc.TopoCMesh:
		return 0.53
	case noc.TopoExpress:
		return 0.73
	case noc.TopoVertical:
		return 0.74
	}
	return DefaultAllocEfficiency
}

// Model is an immutable closed-form timing model of one topology over
// one fault map. Build one with NewForTopology; queries are cheap and
// safe for concurrent use.
type Model struct {
	topo    noc.Topology
	grid    geom.Grid
	hop     float64 // cycles per unit of link length
	eff     float64
	healthy int
	alive   []bool // health snapshot at construction

	np    int
	local int

	// norm holds, per network and (tile, port) link, the expected
	// crossings per cycle at unit per-tile injection rate; ejNorm the
	// per-tile ejection arrivals.
	norm   [2][]float64
	ejNorm []float64
	// capInv is 1/capacity per (tile, port) link. A length-L link is
	// credit-limited by the downstream FIFO: at most FIFODepth packets
	// may be queued-or-in-flight toward one input port, and each flight
	// takes L*LinkLatency cycles, so sustained service caps at
	// min(1, FIFODepth/(L*LinkLatency)) packets per cycle. Unit mesh
	// links are uncapped (capInv exactly 1); express links (L=4) cap at
	// 0.5 — the engine effect that dominates their saturation.
	capInv []float64
	// maxNorm is the highest capacity-normalized link utilization at
	// unit injection rate; sat, its reciprocal capped at 1, is the
	// saturation rate of a perfect one-packet-per-cycle allocator (for
	// the fault-free N x N mesh exactly the 8/N bisection bound).
	maxNorm float64
	sat     float64
	avgLen  float64 // expected route length (mesh-hop units) over all pairs
	reach   float64 // fraction of ordered pairs with a fault-free route on their network
}

// NewForTopology builds the closed-form model for the named topology
// ("" = mesh) over a fault map, with the topology's calibrated
// allocation efficiency. The mesh fills its marginals from prefix sums,
// every other topology by in-tree aggregation over its routes. The
// fault map is read during construction only.
func NewForTopology(topology string, fm *fault.Map) (*Model, error) {
	topo, err := noc.NewTopology(topology, fm.Grid())
	if err != nil {
		return nil, err
	}
	build := (*Model).buildInTree
	if topo.Name() == noc.TopoMesh {
		build = (*Model).buildPrefixSums
	}
	return newModel(topo, fm, build)
}

// newModel builds a model whose marginals come from build. build fills
// norm and ejNorm with integer pair counts and returns the summed route
// length over both networks and the clear-route pair count per network.
func newModel(topo noc.Topology, fm *fault.Map, build func(*Model) (lenSum int64, clearPairs [2]int64)) (*Model, error) {
	g := fm.Grid()
	cfg := noc.DefaultSimConfig()
	m := &Model{
		topo:    topo,
		grid:    g,
		hop:     float64(cfg.LinkLatency),
		eff:     DefaultTopoAllocEfficiency(topo.Name()),
		healthy: fm.HealthyCount(),
		np:      topo.Ports(),
		local:   topo.Ports() - 1,
	}
	if m.healthy < 2 {
		return nil, fmt.Errorf("analytical: %d healthy tiles, need at least 2", m.healthy)
	}
	size := g.Size()
	m.alive = make([]bool, size)
	g.All(func(c geom.Coord) { m.alive[g.Index(c)] = fm.Healthy(c) })
	m.capInv = make([]float64, size*m.np)
	g.All(func(c geom.Coord) {
		for p := 0; p < m.local; p++ {
			_, _, length, ok := topo.Link(c, p)
			if !ok {
				continue
			}
			inv := float64(length*cfg.LinkLatency) / float64(cfg.FIFODepth)
			if inv < 1 {
				inv = 1
			}
			m.capInv[g.Index(c)*m.np+p] = inv
		}
	})
	m.norm[noc.XY] = make([]float64, size*m.np)
	m.norm[noc.YX] = make([]float64, size*m.np)
	m.ejNorm = make([]float64, size)
	lenSum, clearPairs := build(m)

	// Scale the counts by the per-network pair probability at unit
	// rate. Counts are exact integers in float64, so both builds give
	// the same bits for the same counts.
	perPair := 1 / (2 * float64(m.healthy-1))
	for net := 0; net < 2; net++ {
		for i, c := range m.norm[net] {
			if c == 0 {
				continue
			}
			v := c * perPair
			m.norm[net][i] = v
			if u := v * m.capInv[i]; u > m.maxNorm {
				m.maxNorm = u
			}
		}
	}
	for i, c := range m.ejNorm {
		v := c * perPair
		m.ejNorm[i] = v
		if v > m.maxNorm {
			m.maxNorm = v
		}
	}
	m.sat = 1.0
	if m.maxNorm > 1 {
		m.sat = 1 / m.maxNorm
	}
	pairs := float64(m.healthy) * float64(m.healthy-1)
	m.avgLen = float64(lenSum) / (2 * pairs)
	m.reach = float64(clearPairs[noc.XY]+clearPairs[noc.YX]) / (2 * pairs)
	return m, nil
}

// ModelName implements noc.LatencyModel.
func (m *Model) ModelName() string { return noc.ModelNameAnalytical }

// Grid implements noc.LatencyModel.
func (m *Model) Grid() geom.Grid { return m.grid }

// SaturationRate implements noc.LatencyModel: the per-tile injection
// rate (both networks combined) at which the hottest link reaches the
// service capacity the switch allocator sustains (the ideal bound
// scaled by the calibrated allocation efficiency).
func (m *Model) SaturationRate() float64 { return m.sat * m.eff }

// ReachableFraction returns the fraction of ordered healthy pairs
// whose route on the injected network is fault-free — the delivered
// fraction of offered traffic, since blocked packets are dropped at
// the first faulty router.
func (m *Model) ReachableFraction() float64 { return m.reach }

// routeStep resolves one routing decision toward dst on net: the
// policy's preferred port at cur, and the link it crosses. terminal is
// true at ejection (port == local) or on a contract-violating dead end.
// By the noc.Topology routing contract the packet's source and arrival
// port do not matter, so the route is asked as if it started at cur.
func (m *Model) routeStep(net noc.Network, dst, cur geom.Coord) (port int, far geom.Coord, length int, terminal bool) {
	port = m.topo.Policy().Route(net, cur, dst, cur, m.local).First()
	if port < 0 {
		return 0, cur, 0, true
	}
	if port == m.local {
		return port, cur, 0, true
	}
	far, _, length, ok := m.topo.Link(cur, port)
	if !ok {
		return port, cur, 0, true
	}
	return port, far, length, false
}

// ThroughputCurve implements noc.LatencyModel: the closed-form
// latency-throughput sweep, one point per offered rate.
func (m *Model) ThroughputCurve(ctx context.Context, rates []float64) ([]noc.ThroughputPoint, error) {
	out := make([]noc.ThroughputPoint, 0, len(rates))
	for _, rate := range rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rate < 0 {
			return nil, fmt.Errorf("analytical: negative rate %.3g", rate)
		}
		out = append(out, m.point(rate))
	}
	return out, nil
}

// point evaluates one offered rate.
func (m *Model) point(rate float64) noc.ThroughputPoint {
	pt := noc.ThroughputPoint{OfferedRate: rate}
	sat := m.SaturationRate()
	delivered := rate
	if delivered > sat {
		delivered = sat
		pt.Backpressured = 1 - sat/rate
	}
	pt.DeliveredRate = delivered * m.reach
	if rate == 0 {
		pt.AvgLatency = m.avgLen*m.hop + 1
		return pt
	}
	// Expected per-packet queueing: each link contributes its wait
	// weighted by the expected crossings per packet (norm/healthy).
	var qwait float64
	for net := 0; net < 2; net++ {
		for i, n := range m.norm[net] {
			if n > 0 {
				qwait += n * m.wait(rate*n*m.capInv[i])
			}
		}
	}
	for _, n := range m.ejNorm {
		if n > 0 {
			qwait += n * m.wait(rate*n)
		}
	}
	pt.AvgLatency = m.avgLen*m.hop + 1 + qwait/float64(m.healthy)
	return pt
}

// wait is the M/D/1-style queueing delay of a link carrying `load`
// expected packets per cycle per unit of capacity: utilization is load
// over the effective (allocation-limited) service rate, clamped so
// saturated links stay finite.
func (m *Model) wait(load float64) float64 {
	if load <= 0 {
		return 0
	}
	rho := load / m.eff
	if rho > maxUtilization {
		rho = maxUtilization
	}
	return rho / (2 * (1 - rho))
}
