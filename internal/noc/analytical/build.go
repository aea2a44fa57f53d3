package analytical

import (
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// The two marginal builds. Each fills m.norm and m.ejNorm with exact
// integer counts over ordered (src, dst) pairs of healthy tiles, and
// returns the route length summed over both networks (blocked pairs
// count their full route, as if flown over the faulty tiles) and the
// clear-route pair count per network. newModel scales the counts into
// rates.

// buildPrefixSums is the mesh build, O(tiles). Dimension-ordered
// routes are unique, so the crossing count of every directed link is a
// product of two healthy-tile counts — sources that reach the link
// through their fault-free row/column run, times destinations beyond
// it — each an O(1) difference of row/column prefix sums.
func (m *Model) buildPrefixSums() (lenSum int64, clearPairs [2]int64) {
	g := m.grid
	W, H := g.W, g.H
	healthyAt := func(x, y int) bool { return x >= 0 && x < W && y >= 0 && y < H && m.alive[y*W+x] }

	// Row/column healthy-count prefix sums (index i holds count over
	// coordinates < i, so ranges are half-open and the zero case is
	// free) and maximal fault-free run bounds per tile.
	rowPre := make([][]int, H) // rowPre[y][x] = healthy in row y, cols [0,x)
	colPre := make([][]int, W)
	rowRunStart := make([]int, W*H) // valid where healthy
	rowRunEnd := make([]int, W*H)
	colRunStart := make([]int, W*H)
	colRunEnd := make([]int, W*H)
	for y := 0; y < H; y++ {
		rowPre[y] = make([]int, W+1)
		start := 0
		for x := 0; x < W; x++ {
			rowPre[y][x+1] = rowPre[y][x]
			if healthyAt(x, y) {
				rowPre[y][x+1]++
			} else {
				start = x + 1
			}
			rowRunStart[y*W+x] = start
		}
		end := W - 1
		for x := W - 1; x >= 0; x-- {
			if !healthyAt(x, y) {
				end = x - 1
			}
			rowRunEnd[y*W+x] = end
		}
	}
	for x := 0; x < W; x++ {
		colPre[x] = make([]int, H+1)
		start := 0
		for y := 0; y < H; y++ {
			colPre[x][y+1] = colPre[x][y]
			if healthyAt(x, y) {
				colPre[x][y+1]++
			} else {
				start = y + 1
			}
			colRunStart[y*W+x] = start
		}
		end := H - 1
		for y := H - 1; y >= 0; y-- {
			if !healthyAt(x, y) {
				end = y - 1
			}
			colRunEnd[y*W+x] = end
		}
	}
	// Totals across whole columns/rows, as prefix sums over the axis.
	colTotPre := make([]int, W+1) // healthy in cols [0,x)
	for x := 0; x < W; x++ {
		colTotPre[x+1] = colTotPre[x] + colPre[x][H]
	}
	rowTotPre := make([]int, H+1)
	for y := 0; y < H; y++ {
		rowTotPre[y+1] = rowTotPre[y] + rowPre[y][W]
	}
	// Run-length prefix sums: srowPre[x][y] = sum over rows t < y of
	// the horizontal run length around column x in row t (0 where
	// (x,t) is faulty); scolPre mirrors it per row. These answer "how
	// many sources can route cleanly into column x at or below row y"
	// in O(1).
	srowPre := make([][]int, W)
	for x := 0; x < W; x++ {
		srowPre[x] = make([]int, H+1)
		for y := 0; y < H; y++ {
			srowPre[x][y+1] = srowPre[x][y]
			if healthyAt(x, y) {
				srowPre[x][y+1] += rowRunEnd[y*W+x] - rowRunStart[y*W+x] + 1
			}
		}
	}
	scolPre := make([][]int, H)
	for y := 0; y < H; y++ {
		scolPre[y] = make([]int, W+1)
		for x := 0; x < W; x++ {
			scolPre[y][x+1] = scolPre[y][x]
			if healthyAt(x, y) {
				scolPre[y][x+1] += colRunEnd[y*W+x] - colRunStart[y*W+x] + 1
			}
		}
	}

	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			if !healthyAt(x, y) {
				continue
			}
			i := y*W + x
			link := func(net noc.Network, dir geom.Dir, srcs, dsts int) {
				m.norm[net][i*m.np+int(dir)] = float64(srcs * dsts)
			}
			rs, re := rowRunStart[i], rowRunEnd[i]
			cs, ce := colRunStart[i], colRunEnd[i]

			// X-Y network. X phase runs along the source row: a packet
			// crosses the east link of (x,y) when its source sits in
			// the same fault-free run at column <= x and its
			// destination column is beyond x (wherever its row is —
			// packets dropped later still cross here).
			if healthyAt(x+1, y) {
				link(noc.XY, geom.East, x-rs+1, colTotPre[W]-colTotPre[x+1])
			}
			if healthyAt(x-1, y) {
				link(noc.XY, geom.West, re-x+1, colTotPre[x])
			}
			// Y phase runs up/down the destination column: sources are
			// every tile that routes cleanly into column x from a row
			// inside this column's fault-free run, destinations the
			// healthy tiles of column x beyond y.
			if healthyAt(x, y+1) {
				link(noc.XY, geom.North, srowPre[x][y+1]-srowPre[x][cs], colPre[x][H]-colPre[x][y+1])
			}
			if healthyAt(x, y-1) {
				link(noc.XY, geom.South, srowPre[x][ce+1]-srowPre[x][y], colPre[x][y])
			}

			// Y-X network: the mirror image.
			if healthyAt(x, y+1) {
				link(noc.YX, geom.North, y-cs+1, rowTotPre[H]-rowTotPre[y+1])
			}
			if healthyAt(x, y-1) {
				link(noc.YX, geom.South, ce-y+1, rowTotPre[y])
			}
			if healthyAt(x+1, y) {
				link(noc.YX, geom.East, scolPre[y][x+1]-scolPre[y][rs], rowPre[y][W]-rowPre[y][x+1])
			}
			if healthyAt(x-1, y) {
				link(noc.YX, geom.West, scolPre[y][re+1]-scolPre[y][x], rowPre[y][x])
			}

			// Clear-path pair counts and ejection load. outXY counts
			// destinations this source reaches fault-free on X-Y (every
			// column in its row run, then that column's run); by the
			// src<->dst mirror symmetry the same sum taken column-first
			// is simultaneously "sources reaching c on X-Y" (inXY) and
			// "destinations c reaches on Y-X" (outYX).
			outXY := scolPre[y][re+1] - scolPre[y][rs] - 1
			outYX := srowPre[x][ce+1] - srowPre[x][cs] - 1
			clearPairs[noc.XY] += int64(outXY)
			clearPairs[noc.YX] += int64(outYX)
			// Ejection arrivals at c: sources reaching c on each net.
			m.ejNorm[i] = float64(outYX + outXY)
		}
	}

	// Route lengths: the Manhattan distance summed over ordered healthy
	// pairs, from the per-axis marginals. Both networks route every pair
	// over that distance.
	var hops int64
	for x1 := 0; x1 < W; x1++ {
		for x2 := x1 + 1; x2 < W; x2++ {
			hops += 2 * int64(colPre[x1][H]) * int64(colPre[x2][H]) * int64(x2-x1)
		}
	}
	for y1 := 0; y1 < H; y1++ {
		for y2 := y1 + 1; y2 < H; y2++ {
			hops += 2 * int64(rowPre[y1][W]) * int64(rowPre[y2][W]) * int64(y2-y1)
		}
	}
	return 2 * hops, clearPairs
}

// buildInTree is the build for any topology, O(tiles^2). Because the
// shipped routing policies are deterministic functions of (network,
// current tile, destination), the routes of all sources toward one
// destination form an in-tree, so per-link crossing counts accumulate
// by flowing source counts down that tree: O(tiles) per destination.
// For each (network, destination), every tile's next hop is resolved
// once, route lengths come from memoized chain-walking, and source
// counts flow down the in-tree in descending-length order (an edge
// always decreases remaining length, so length is a topological key).
// (A policy whose choice depended on the packet source or arrival port
// would break this aggregation; the noc.Topology contract rules it
// out.)
func (m *Model) buildInTree() (lenSum int64, clearPairs [2]int64) {
	g, np := m.grid, m.np
	size := g.Size()

	nextIdx := make([]int32, size) // -1 = terminal
	nextPort := make([]int32, size)
	linkLen := make([]int32, size)
	routeLen := make([]int64, size) // -1 = unresolved
	cnt := make([]int64, size)
	var stack []int32
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
			// pairs still contribute their full route length.
			maxLen := 0
			for i := 0; i < size; i++ {
				routeLen[i] = -1
				port, far, length, terminal := m.routeStep(n, dst, g.Coord(i))
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
					m.norm[net][int(i)*np+int(nextPort[i])] += float64(cnt[i])
					cnt[t] += cnt[i]
				}
				byLen[l] = byLen[l][:0]
			}
			m.ejNorm[di] += float64(cnt[di])
			clearPairs[net] += cnt[di]
		}
	}
	return lenSum, clearPairs
}
