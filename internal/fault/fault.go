// Package fault provides fault maps over the waferscale tile array and
// the seeded draws and summary statistics behind the resiliency Monte
// Carlos (network connectivity in Fig. 6, clock forwarding in Fig. 4,
// and the bonding-yield estimates in Section V).
//
// The paper treats faults at chiplet granularity; because the compute
// chiplet carries the routers and clock circuitry and the memory chiplet
// carries the north-south feedthroughs, a fault in either chiplet makes
// the tile unusable for routing, so the analyses operate on tile-level
// fault maps (a faulty chiplet implies a faulty tile).
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"waferscale/internal/geom"
)

// Map records which tiles of the array are faulty. The zero value is
// unusable; construct with NewMap.
type Map struct {
	grid   geom.Grid
	faulty []bool
	count  int
}

// NewMap returns an all-healthy fault map over the grid.
func NewMap(grid geom.Grid) *Map {
	return &Map{grid: grid, faulty: make([]bool, grid.Size())}
}

// Grid returns the underlying array shape.
func (m *Map) Grid() geom.Grid { return m.grid }

// MarkFaulty marks a tile faulty. Marking twice is idempotent.
func (m *Map) MarkFaulty(c geom.Coord) {
	i := m.grid.Index(c)
	if !m.faulty[i] {
		m.faulty[i] = true
		m.count++
	}
}

// MarkHealthy clears a tile's fault. Clearing twice is idempotent.
func (m *Map) MarkHealthy(c geom.Coord) {
	i := m.grid.Index(c)
	if m.faulty[i] {
		m.faulty[i] = false
		m.count--
	}
}

// Faulty reports whether the tile is faulty. Coordinates outside the
// grid are reported faulty: the array boundary blocks routes and clocks
// exactly like a dead tile does, which simplifies the analyses.
func (m *Map) Faulty(c geom.Coord) bool {
	if !m.grid.In(c) {
		return true
	}
	return m.faulty[m.grid.Index(c)]
}

// Healthy reports the opposite of Faulty for in-grid tiles.
func (m *Map) Healthy(c geom.Coord) bool { return m.grid.In(c) && !m.Faulty(c) }

// Count returns the number of faulty tiles.
func (m *Map) Count() int { return m.count }

// HealthyCount returns the number of non-faulty tiles.
func (m *Map) HealthyCount() int { return m.grid.Size() - m.count }

// FaultyCoords returns the faulty tiles in row-major order.
func (m *Map) FaultyCoords() []geom.Coord {
	out := make([]geom.Coord, 0, m.count)
	for i, f := range m.faulty {
		if f {
			out = append(out, m.grid.Coord(i))
		}
	}
	return out
}

// HealthyCoords returns the non-faulty tiles in row-major order.
func (m *Map) HealthyCoords() []geom.Coord {
	out := make([]geom.Coord, 0, m.grid.Size()-m.count)
	for i, f := range m.faulty {
		if !f {
			out = append(out, m.grid.Coord(i))
		}
	}
	return out
}

// Clone returns an independent copy of the map.
func (m *Map) Clone() *Map {
	c := &Map{grid: m.grid, faulty: make([]bool, len(m.faulty)), count: m.count}
	copy(c.faulty, m.faulty)
	return c
}

// Reset clears all faults.
func (m *Map) Reset() {
	for i := range m.faulty {
		m.faulty[i] = false
	}
	m.count = 0
}

// String draws the map: '.' healthy, 'X' faulty, one row per line with
// row Y = H-1 on top (north up), matching the paper's figures.
func (m *Map) String() string {
	var b strings.Builder
	for y := m.grid.H - 1; y >= 0; y-- {
		for x := 0; x < m.grid.W; x++ {
			if m.Faulty(geom.C(x, y)) {
				b.WriteByte('X')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Random returns a fault map with exactly n distinct faulty tiles drawn
// uniformly at random, mirroring the paper's "randomly generated fault
// maps" for the Fig. 6 Monte Carlo. It panics if n exceeds the array.
func Random(grid geom.Grid, n int, rng *rand.Rand) *Map {
	if n < 0 || n > grid.Size() {
		panic(fmt.Sprintf("fault: cannot place %d faults in %v array", n, grid))
	}
	m := NewMap(grid)
	// Partial Fisher-Yates over the tile indices.
	perm := rng.Perm(grid.Size())
	for _, idx := range perm[:n] {
		m.MarkFaulty(grid.Coord(idx))
	}
	return m
}

// FromYield returns a fault map where every tile fails independently
// with probability p (e.g. the post-bond chiplet-loss probability from
// the I/O yield model: a tile dies if either of its two chiplets does).
func FromYield(grid geom.Grid, p float64, rng *rand.Rand) *Map {
	m := NewMap(grid)
	grid.All(func(c geom.Coord) {
		if rng.Float64() < p {
			m.MarkFaulty(c)
		}
	})
	return m
}

// TrialSeed derives a per-trial seed from a base seed and a stratum
// (e.g. the fault or kill count) via a splitmix64-style mix, so trials
// are decorrelated even for adjacent indices. Every Monte Carlo in the
// repository (fault maps, chiplet faults, chaos runs) derives its
// per-trial rand.Rand through this one function, which is what makes
// the parallel fan-out reproducible per seed.
func TrialSeed(base int64, stratum, trial int) int64 {
	z := uint64(base) ^ uint64(stratum)<<32 ^ uint64(trial)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ConnectedToEdge computes, via breadth-first search over healthy tiles,
// which tiles can reach the array edge through 4-connected healthy
// paths. This is the graph property underlying both clock-forwarding
// reachability (a clock generated at any edge tile reaches exactly
// these tiles) and edge escape for test signals.
func (m *Map) ConnectedToEdge() []bool {
	reach := make([]bool, m.grid.Size())
	queue := make([]geom.Coord, 0, m.grid.Size())
	for _, c := range m.grid.EdgeCoords() {
		if m.Healthy(c) {
			reach[m.grid.Index(c)] = true
			queue = append(queue, c)
		}
	}
	var nbuf []geom.Coord
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		nbuf = m.grid.Neighbors(c, nbuf[:0])
		for _, n := range nbuf {
			i := m.grid.Index(n)
			if !reach[i] && m.Healthy(n) {
				reach[i] = true
				queue = append(queue, n)
			}
		}
	}
	return reach
}

// Isolated returns healthy tiles whose four neighbors are all faulty
// (or off-array). Such tiles can neither receive the forwarded clock
// nor exchange packets — the paper's Fig. 4 "tile 2" case.
func (m *Map) Isolated() []geom.Coord {
	var out []geom.Coord
	m.grid.All(func(c geom.Coord) {
		if !m.Healthy(c) {
			return
		}
		for _, n := range c.Neighbors() {
			if m.Healthy(n) {
				return
			}
		}
		out = append(out, c)
	})
	return out
}

// Stats summarizes a set of sampled values.
type Stats struct {
	N        int
	Mean     float64
	Min, Max float64
	StdDev   float64
}

// Collect computes summary statistics over the samples.
func Collect(samples []float64) Stats {
	s := Stats{N: len(samples)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = samples[0], samples[0]
	var sum float64
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}
