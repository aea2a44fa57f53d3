package noc

import (
	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Odd-even turn-model routing (Wu, IEEE ToC 2003) — the paper's
// footnote 4 names it as the sophisticated routing scheme future
// waferscale systems would adopt for better fault tolerance than the
// prototype's two fixed DoR networks. It is implemented here as an
// ablation: an adaptive router may take any minimal or non-minimal
// step, subject to the odd-even turn restrictions that make the
// network deadlock-free without virtual channels:
//
//   - EN and ES turns (east-to-north, east-to-south) are forbidden in
//     even columns;
//   - NW and SW turns (north-to-west, south-to-west) are forbidden in
//     odd columns.
//
// Connectivity under the model is decided exactly by a BFS over the
// (tile, incoming-direction) state graph that honors the restrictions
// and avoids faulty tiles.

// oddEvenTurnAllowed reports whether a packet that entered tile col x
// moving `in` may leave moving `out`.
func oddEvenTurnAllowed(x int, in, out geom.Dir) bool {
	if in == out {
		return true // going straight is always allowed
	}
	if out == in.Opposite() {
		return false // 180-degree turns are never allowed
	}
	even := x%2 == 0
	switch {
	case in == geom.East && (out == geom.North || out == geom.South):
		return !even // EN, ES forbidden in even columns
	case (in == geom.North || in == geom.South) && out == geom.West:
		return even // NW, SW forbidden in odd columns
	}
	return true
}

// OddEvenReachable reports whether dst is reachable from src under
// odd-even adaptive routing on the fault map. Endpoints must be
// healthy.
func OddEvenReachable(fm *fault.Map, src, dst geom.Coord) bool {
	if src == dst {
		return fm.Healthy(src)
	}
	if !fm.Healthy(src) || !fm.Healthy(dst) {
		return false
	}
	return oddEvenReachSet(fm, src)[fm.Grid().Index(dst)]
}

// OddEvenStats counts disconnected ordered pairs under odd-even
// adaptive routing — comparable to PairStats for the DoR networks.
type OddEvenStats struct {
	Pairs        int
	Disconnected int
}

// Pct returns the disconnected percentage.
func (s OddEvenStats) Pct() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return 100 * float64(s.Disconnected) / float64(s.Pairs)
}

// OddEvenAllPairs scans all ordered healthy pairs. It is far more
// expensive than Analyzer.AllPairs (BFS per source), so callers use
// smaller grids or fewer trials.
func OddEvenAllPairs(fm *fault.Map) OddEvenStats {
	g := fm.Grid()
	healthy := fm.HealthyCoords()
	st := OddEvenStats{}
	for _, s := range healthy {
		// One BFS per source covers all destinations.
		reach := oddEvenReachSet(fm, s)
		for _, d := range healthy {
			if s == d {
				continue
			}
			st.Pairs++
			if !reach[g.Index(d)] {
				st.Disconnected++
			}
		}
	}
	return st
}

// oddEvenReachSet returns per-tile reachability from src under the
// odd-even model: a BFS over (tile, incoming direction) states.
func oddEvenReachSet(fm *fault.Map, src geom.Coord) []bool {
	g := fm.Grid()
	reach := make([]bool, g.Size())
	if !fm.Healthy(src) {
		return reach
	}
	reach[g.Index(src)] = true
	visited := make([]bool, g.Size()*4)
	type state struct {
		at geom.Coord
		in geom.Dir
	}
	var queue []state
	for _, d := range geom.Dirs() {
		n := src.Step(d)
		if fm.Healthy(n) {
			visited[g.Index(n)*4+int(d)] = true
			reach[g.Index(n)] = true
			queue = append(queue, state{n, d})
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, out := range geom.Dirs() {
			if !oddEvenTurnAllowed(s.at.X, s.in, out) {
				continue
			}
			n := s.at.Step(out)
			if !fm.Healthy(n) {
				continue
			}
			idx := g.Index(n)*4 + int(out)
			if !visited[idx] {
				visited[idx] = true
				reach[g.Index(n)] = true
				queue = append(queue, state{n, out})
			}
		}
	}
	return reach
}
