package analytical

import (
	"context"
	"fmt"
	"sort"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// TopoModel is the closed-form counterpart of the cycle engine for an
// arbitrary noc.Topology: the same three layers as the mesh Model —
// traffic marginals, M/D/1 queueing, aggregates — with the marginals
// computed from the topology's own deterministic routes instead of the
// mesh prefix sums.
//
// Because the shipped routing policies are deterministic functions of
// (network, current tile, destination), the routes of all sources
// toward one destination form an in-tree, so per-link crossing counts
// accumulate by flowing source counts down that tree: O(tiles) per
// destination, O(tiles^2) per model. That is a class above the mesh
// prefix-sum build, which is O(tiles): on a fault-free 64x64 mesh the
// Model builds in under a millisecond and the TopoModel in over a
// second (BenchmarkAnalyticalBuild), which is why NewForTopology keeps
// the Model for the mesh. (A policy whose choice depended on the packet
// source or arrival port would break this aggregation; none of the
// shipped topology policies do.)
//
// Fault semantics mirror the mesh model exactly: a packet crossing into
// a faulty tile is dropped there, loads every link it crossed before,
// and the crossing into the faulty tile itself is not counted. On the
// mesh topology the TopoModel therefore reproduces the prefix-sum
// Model's marginals, saturation and reachability to float rounding —
// cross-validated in topo_accuracy_test.go.
type TopoModel struct {
	topo    noc.Topology
	grid    geom.Grid
	sim     noc.SimConfig
	clamp   float64
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
	// links are uncapped with the default config; express links (L=4)
	// cap at 0.5 — the engine effect that dominates their saturation.
	capInv  []float64
	maxNorm float64
	sat     float64
	avgLen  float64 // expected route length (mesh-hop units) over all pairs
	reach   float64
}

// DefaultTopoAllocEfficiency returns the calibrated switch-allocation
// efficiency for a topology name — the analogue of
// DefaultAllocEfficiency (which it returns for the mesh), calibrated
// once per topology against the cycle engine's measured fault-free
// 16x16 delivered-throughput plateau (measured/capacity-normalized
// ideal: mesh 0.713, cmesh 0.525, express 0.731, vertical 0.740).
// Concentration funnels four tiles' traffic through one
// input-buffered hub, costing extra head-of-line loss; express and
// vertical links keep the mesh's allocator geometry on the hot links
// and calibrate close to it.
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

// NewForTopology builds the closed-form model for the named topology
// ("" = mesh) over a fault map, filling the topology's calibrated
// allocation efficiency when cfg leaves it zero. The mesh returns the
// prefix-sum Model (bit-identical to pre-topology callers); every
// other name returns a route-walking TopoModel.
func NewForTopology(topology string, fm *fault.Map, cfg Config) (noc.LatencyModel, error) {
	name, err := noc.NormalizeTopology(topology)
	if err != nil {
		return nil, err
	}
	if cfg.AllocEfficiency == 0 {
		cfg.AllocEfficiency = DefaultTopoAllocEfficiency(name)
	}
	if name == noc.TopoMesh {
		return New(fm, cfg)
	}
	topo, err := noc.NewTopology(name, fm.Grid())
	if err != nil {
		return nil, err
	}
	return NewTopoModel(topo, fm, cfg)
}

// NewTopoModel builds the route-walking model for a topology over a
// fault map. The fault map is read during construction only.
func NewTopoModel(topo noc.Topology, fm *fault.Map, cfg Config) (*TopoModel, error) {
	g := fm.Grid()
	if topo.Grid() != g {
		return nil, fmt.Errorf("analytical: topology grid %v does not match fault map grid %v", topo.Grid(), g)
	}
	if g.W < 2 || g.H < 2 {
		return nil, fmt.Errorf("analytical: grid %v too small", g)
	}
	if cfg.Sim.FIFODepth == 0 && cfg.Sim.LinkLatency == 0 {
		cfg.Sim = noc.DefaultSimConfig()
	}
	if err := cfg.Sim.Validate(); err != nil {
		return nil, err
	}
	clamp := cfg.MaxUtilization
	if clamp <= 0 {
		clamp = 0.97
	}
	if clamp >= 1 {
		return nil, fmt.Errorf("analytical: max utilization %.3g must be < 1", clamp)
	}
	eff := cfg.AllocEfficiency
	if eff <= 0 {
		eff = DefaultTopoAllocEfficiency(topo.Name())
	}
	if eff > 1 {
		return nil, fmt.Errorf("analytical: allocation efficiency %.3g must be <= 1", eff)
	}
	m := &TopoModel{
		topo:    topo,
		grid:    g,
		sim:     cfg.Sim,
		clamp:   clamp,
		eff:     eff,
		healthy: fm.HealthyCount(),
		np:      topo.Ports(),
		local:   topo.Ports() - 1,
	}
	if m.healthy < 2 {
		return nil, fmt.Errorf("analytical: %d healthy tiles, need at least 2", m.healthy)
	}
	m.alive = make([]bool, g.Size())
	g.All(func(c geom.Coord) { m.alive[g.Index(c)] = fm.Healthy(c) })
	m.build()
	return m, nil
}

// ModelName implements noc.LatencyModel.
func (m *TopoModel) ModelName() string { return noc.ModelNameAnalytical }

// Grid implements noc.LatencyModel.
func (m *TopoModel) Grid() geom.Grid { return m.grid }

// Topology returns the link graph the model was built over.
func (m *TopoModel) Topology() noc.Topology { return m.topo }

// SaturationRate implements noc.LatencyModel: the allocator-derated
// rate at which the hottest link saturates.
func (m *TopoModel) SaturationRate() float64 { return m.sat * m.eff }

// IdealSaturationRate returns the saturation rate of a perfect
// one-packet-per-cycle allocator on this topology and fault map.
func (m *TopoModel) IdealSaturationRate() float64 { return m.sat }

// AvgRouteLength returns the expected route length in mesh-hop units
// (link lengths summed along the topology's routes) of a uniform-random
// packet.
func (m *TopoModel) AvgRouteLength() float64 { return m.avgLen }

// ReachableFraction returns the fraction of ordered healthy pairs whose
// route on the injected network is fault-free.
func (m *TopoModel) ReachableFraction() float64 { return m.reach }

// MaxLinkLoad returns the highest capacity-normalized link utilization
// (crossings over link capacity, or ejection arrivals) at unit per-tile
// injection rate; saturation is its reciprocal.
func (m *TopoModel) MaxLinkLoad() float64 { return m.maxNorm }

// LinkLoad returns the expected crossings per cycle, at unit per-tile
// injection rate, of the link leaving (c, port) on the given network.
func (m *TopoModel) LinkLoad(net noc.Network, c geom.Coord, port int) float64 {
	if !m.grid.In(c) || port < 0 || port >= m.local {
		return 0
	}
	return m.norm[net][m.grid.Index(c)*m.np+port]
}

// routeStep resolves one routing decision: the policy's first candidate
// port at cur, and the link it crosses. terminal is true at ejection
// (port == local) or on a contract-violating dead end. buf and pkt are
// caller scratch, hoisted out of the route loops so the policy call
// allocates nothing per step.
func (m *TopoModel) routeStep(net noc.Network, cur, dst geom.Coord, buf []int, pkt *noc.Packet) (port int, far geom.Coord, length int, terminal bool) {
	*pkt = noc.Packet{Net: net, Src: cur, Dst: dst}
	n := m.topo.Policy().Candidates(net, pkt, cur, m.local, buf)
	if n <= 0 {
		return 0, cur, 0, true
	}
	port = buf[0]
	if port == m.local {
		return port, cur, 0, true
	}
	far, _, length, ok := m.topo.Link(cur, port)
	if !ok {
		return port, cur, 0, true
	}
	return port, far, length, false
}

// PairLatency implements noc.LatencyModel: expected cycles src->dst on
// the given network under uniform background load. ok is false when the
// route crosses a faulty tile.
func (m *TopoModel) PairLatency(net noc.Network, src, dst geom.Coord, rate float64) (float64, bool) {
	if src == dst || !m.grid.In(src) || !m.grid.In(dst) {
		return 0, false
	}
	if !m.alive[m.grid.Index(src)] || !m.alive[m.grid.Index(dst)] {
		return 0, false
	}
	var buf [noc.MaxPorts]int
	var pkt noc.Packet
	lat := 1.0
	maxSteps := 4 * (m.grid.W + m.grid.H)
	for cur, step := src, 0; ; step++ {
		if step > maxSteps {
			return 0, false // contract violation; treat as unreachable
		}
		port, far, length, terminal := m.routeStep(net, cur, dst, buf[:], &pkt)
		if terminal {
			if cur != dst {
				return 0, false
			}
			break
		}
		if !m.alive[m.grid.Index(far)] {
			return 0, false // dropped entering the faulty tile
		}
		lat += float64(length) * m.perHop()
		if rate > 0 {
			slot := m.grid.Index(cur)*m.np + port
			lat += m.wait(rate * m.norm[net][slot] * m.capInv[slot])
		}
		cur = far
	}
	if rate > 0 {
		lat += m.wait(rate * m.ejNorm[m.grid.Index(dst)])
	}
	return lat, true
}

// ThroughputCurve implements noc.LatencyModel.
func (m *TopoModel) ThroughputCurve(ctx context.Context, rates []float64) ([]noc.ThroughputPoint, error) {
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

// point evaluates one offered rate — the TopoModel twin of Model.point
// with route length in place of Manhattan hops.
func (m *TopoModel) point(rate float64) noc.ThroughputPoint {
	pt := noc.ThroughputPoint{OfferedRate: rate}
	sat := m.SaturationRate()
	delivered := rate
	if delivered > sat {
		delivered = sat
		pt.Backpressured = 1 - sat/rate
	}
	pt.DeliveredRate = delivered * m.reach
	if rate == 0 {
		pt.AvgLatency = m.avgLen*m.perHop() + 1
		return pt
	}
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
	pt.AvgLatency = m.avgLen*m.perHop() + 1 + qwait/float64(m.healthy)
	return pt
}

// perHop and wait mirror Model's queueing machinery.
func (m *TopoModel) perHop() float64 {
	l := m.sim.LinkLatency
	if l < 1 {
		l = 1
	}
	return float64(l)
}

func (m *TopoModel) wait(load float64) float64 {
	if load <= 0 {
		return 0
	}
	rho := load / m.eff
	if rho > m.clamp {
		rho = m.clamp
	}
	return rho / (2 * (1 - rho))
}

// build computes the traffic marginals by in-tree aggregation: for each
// (network, destination), every tile's deterministic next hop is
// resolved once, route lengths come from memoized chain-walking, and
// source counts flow down the in-tree in descending-length order (an
// edge always decreases remaining length, so length is a topological
// key). Counts are exact integers scaled by the per-pair probability at
// the end.
func (m *TopoModel) build() {
	g, np := m.grid, m.np
	size := g.Size()
	perPair := 1 / (2 * float64(m.healthy-1))

	// Per-link credit capacity (see the capInv field doc).
	m.capInv = make([]float64, size*np)
	ll := m.sim.LinkLatency
	if ll < 1 {
		ll = 1
	}
	g.All(func(c geom.Coord) {
		for p := 0; p < m.local; p++ {
			_, _, length, ok := m.topo.Link(c, p)
			if !ok {
				continue
			}
			inv := float64(length*ll) / float64(m.sim.FIFODepth)
			if inv < 1 {
				inv = 1
			}
			m.capInv[g.Index(c)*np+p] = inv
		}
	})

	normCnt := [2][]int64{make([]int64, size*np), make([]int64, size*np)}
	ejCnt := make([]int64, size)
	var clearPairs [2]int64
	var lenSum int64

	nextIdx := make([]int32, size) // -1 = terminal
	nextPort := make([]int32, size)
	linkLen := make([]int32, size)
	routeLen := make([]int64, size) // -1 = unresolved
	cnt := make([]int64, size)
	var stack []int32
	var buf [noc.MaxPorts]int
	var pkt noc.Packet
	var byLen [][]int32 // bucket lists, index = remaining length

	for net := 0; net < 2; net++ {
		n := noc.Network(net)
		for di := 0; di < size; di++ {
			if !m.alive[di] {
				continue
			}
			dst := g.Coord(di)
			// Resolve every tile's next hop toward dst. Faulty tiles are
			// resolved too: routes pass over them virtually so blocked
			// pairs still contribute their full route length, exactly as
			// the mesh model counts Manhattan distance for blocked pairs.
			maxLen := 0
			for i := 0; i < size; i++ {
				routeLen[i] = -1
				port, far, length, terminal := m.routeStep(n, g.Coord(i), dst, buf[:], &pkt)
				if terminal {
					nextIdx[i] = -1
					routeLen[i] = 0
					continue
				}
				nextIdx[i] = int32(g.Index(far))
				nextPort[i] = int32(port)
				linkLen[i] = int32(length)
			}
			// Route lengths by chain-walking with memoization.
			for i := 0; i < size; i++ {
				if routeLen[i] >= 0 {
					continue
				}
				stack = stack[:0]
				j := int32(i)
				for routeLen[j] < 0 {
					stack = append(stack, j)
					j = nextIdx[j]
				}
				acc := routeLen[j]
				for k := len(stack) - 1; k >= 0; k-- {
					t := stack[k]
					acc += int64(linkLen[t])
					routeLen[t] = acc
				}
			}
			for i := 0; i < size; i++ {
				if l := int(routeLen[i]); l > maxLen {
					maxLen = l
				}
			}
			// Flow source counts down the in-tree, longest routes first.
			for len(byLen) <= maxLen {
				byLen = append(byLen, nil)
			}
			for i := 0; i < size; i++ {
				cnt[i] = 0
				if m.alive[i] && i != di {
					cnt[i] = 1
					lenSum += routeLen[i]
				}
				if m.alive[i] {
					byLen[routeLen[i]] = append(byLen[routeLen[i]], int32(i))
				}
			}
			for l := maxLen; l >= 0; l-- {
				for _, i := range byLen[l] {
					if cnt[i] == 0 || nextIdx[i] < 0 {
						continue
					}
					t := nextIdx[i]
					if !m.alive[t] {
						continue // dropped entering the faulty tile; crossing uncounted
					}
					normCnt[net][int(i)*np+int(nextPort[i])] += cnt[i]
					cnt[t] += cnt[i]
				}
				byLen[l] = byLen[l][:0]
			}
			ejCnt[di] += cnt[di]
			clearPairs[net] += cnt[di]
		}
	}

	m.norm[noc.XY] = make([]float64, size*np)
	m.norm[noc.YX] = make([]float64, size*np)
	m.ejNorm = make([]float64, size)
	for net := 0; net < 2; net++ {
		for i, c := range normCnt[net] {
			if c == 0 {
				continue
			}
			v := float64(c) * perPair
			m.norm[net][i] = v
			if u := v * m.capInv[i]; u > m.maxNorm {
				m.maxNorm = u
			}
		}
	}
	for i, c := range ejCnt {
		v := float64(c) * perPair
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
}

// HottestLinks returns the k highest-load links across both networks,
// as a diagnostic for where a topology saturates (e.g. CMesh hub
// spokes vs express lanes).
func (m *TopoModel) HottestLinks(k int) []TopoLinkLoad {
	var out []TopoLinkLoad
	for net := 0; net < 2; net++ {
		for i, v := range m.norm[net] {
			if v > 0 {
				out = append(out, TopoLinkLoad{
					Net:  noc.Network(net),
					From: m.grid.Coord(i / m.np),
					Port: i % m.np,
					Load: v,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Load > out[j].Load })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TopoLinkLoad is one link's expected unit-rate crossing rate.
type TopoLinkLoad struct {
	Net  noc.Network
	From geom.Coord
	Port int
	Load float64
}
