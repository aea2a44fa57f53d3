package sim

import (
	"fmt"

	"waferscale/internal/arch"
	"waferscale/internal/geom"
)

// The on-wafer graph kernel: a pull-based Bellman-Ford relaxation that
// computes single-source shortest paths (SSSP); run on a unit-weight
// graph it computes BFS levels. These are the workloads the paper
// validated on its FPGA-emulated multi-tile system (Section II).
//
// Work distribution and synchronization:
//
//   - Vertices are strided across W worker cores (worker k owns
//     vertices k, k+W, k+2W, ...), so only the owner ever writes
//     dist[v] and the inner loop needs no atomics.
//   - Each round, every worker relaxes its vertices against the
//     *incoming* edges (the host lays out the reversed CSR), then
//     arrives at a global barrier built from an amoadd counter in
//     shared memory; the counter only grows, and round r's release
//     target is (r+1)*W, which tolerates fast workers racing ahead.
//   - Change detection: any worker that lowers a distance in round r
//     stores r+1 into the ctrl block's changed word. Those stores
//     complete (acked on the complementary network) before the worker
//     arrives at the barrier, so after the barrier every worker
//     observes the same continue/stop decision.
//
// Control block layout (all offsets in bytes, in shared memory):
//
//	+0  n        +4  barrier   +8  changed   +12 workers
//	+16 maxRounds +20 rowPtr   +24 colIdx    +28 weight   +32 dist
//
// The block is padded to ctrlSize bytes. The kernel launches through
// RunKernel and starts with KernelPrelude.
const ctrlSize = 64

// RelaxKernelSource is the WS-ISA assembly of the relaxation kernel.
const RelaxKernelSource = KernelPrelude + `
    sw   r2, 0(r1)
    sw   r3, 4(r1)
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 12(r3)
    sw   r4, 12(r1)       ; W
    lw   r4, 16(r3)
    sw   r4, 16(r1)       ; maxRounds
    lw   r4, 20(r3)
    sw   r4, 20(r1)       ; rowPtr
    lw   r4, 24(r3)
    sw   r4, 24(r1)       ; colIdx
    lw   r4, 28(r3)
    sw   r4, 28(r1)       ; weight
    lw   r4, 32(r3)
    sw   r4, 32(r1)       ; dist
    li   r5, 0            ; round = 0

round:
    lw   r2, 0(r1)        ; v = wid
vloop:
    lw   r3, 8(r1)
    bge  r2, r3, vdone    ; v >= n
    li   r3, 4
    mul  r4, r2, r3
    lw   r6, 32(r1)
    add  r6, r6, r4
    lw   r7, 0(r6)        ; dv = dist[v]
    sw   r7, 36(r1)       ; remember original dv
    lw   r8, 20(r1)
    add  r8, r8, r4
    lw   r9, 0(r8)        ; e = rowPtr[v]
    lw   r10, 4(r8)       ; eEnd = rowPtr[v+1]
eloop:
    bge  r9, r10, estore
    li   r3, 4
    mul  r11, r9, r3
    lw   r12, 24(r1)
    add  r12, r12, r11
    lw   r12, 0(r12)      ; u = colIdx[e] (incoming source)
    lw   r13, 28(r1)
    add  r13, r13, r11
    lw   r13, 0(r13)      ; w = weight[e]
    mul  r12, r12, r3
    lw   r14, 32(r1)
    add  r14, r14, r12
    lw   r14, 0(r14)      ; du = dist[u]
    add  r13, r14, r13    ; cand = du + w
    bge  r13, r7, enext
    add  r7, r13, r0      ; dv = cand
enext:
    addi r9, r9, 1
    beq  r0, r0, eloop
estore:
    lw   r3, 36(r1)
    beq  r7, r3, vnext    ; dv unchanged
    li   r3, 4
    mul  r4, r2, r3
    lw   r6, 32(r1)
    add  r6, r6, r4
    sw   r7, 0(r6)        ; dist[v] = dv
    lw   r3, 4(r1)
    addi r4, r5, 1
    sw   r4, 8(r3)        ; changed = round+1
vnext:
    lw   r3, 12(r1)
    add  r2, r2, r3       ; v += W
    beq  r0, r0, vloop
vdone:
    lw   r3, 4(r1)
    addi r3, r3, 4        ; &barrier
    li   r4, 1
    amoadd r6, r4, (r3)   ; arrive
    lw   r4, 12(r1)
    addi r6, r5, 1
    mul  r6, r6, r4       ; release target = (round+1)*W
bwait:
    lw   r7, 0(r3)
    blt  r7, r6, bwait
    lw   r3, 4(r1)
    lw   r7, 8(r3)        ; changed
    addi r4, r5, 1
    blt  r7, r4, done     ; nobody changed anything this round
    addi r5, r5, 1
    lw   r4, 16(r1)
    blt  r5, r4, round
done:
    halt
`

// WorkerRef names one participating core.
type WorkerRef struct {
	Tile geom.Coord
	Core int
}

// WorkloadResult reports a kernel run.
type WorkloadResult struct {
	Dist          []int32
	Cycles        int64
	Instructions  int64
	RemoteLatency float64 // mean remote round-trip, cycles
	RemoteOps     int64
}

// RunSSSP lays out the graph in shared memory, starts the relaxation
// kernel on the given workers, runs to completion and returns the
// distances from src.
func RunSSSP(m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*WorkloadResult, error) {
	distA, err := layoutSSSP(m, g, src, len(workers))
	if err != nil {
		return nil, err
	}
	res, err := launch(m, RelaxKernelSource, arch.GlobalBase, workers, maxCycles)
	if err != nil {
		return nil, err
	}
	if res.Dist, err = ReadGlobalWords(m, distA, g.N); err != nil {
		return nil, err
	}
	return res, nil
}

// layoutSSSP writes the reversed CSR, the initial distance array and
// the control block into shared memory and returns the distance array
// base address.
func layoutSSSP(m *Machine, g *Graph, src, nWorkers int) (uint32, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if src < 0 || src >= g.N {
		return 0, fmt.Errorf("sim: source %d out of range", src)
	}
	if nWorkers == 0 {
		return 0, fmt.Errorf("sim: no workers")
	}
	rev := g.ReverseCSR()

	// Memory layout, starting at the base of the global space.
	base := arch.GlobalBase
	rowPtrA := base + ctrlSize
	colIdxA := rowPtrA + uint32(4*(g.N+1))
	weightA := colIdxA + uint32(4*rev.M())
	distA := weightA + uint32(4*rev.M())

	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	if err := WriteGlobalWords(m, rowPtrA, rev.RowPtr); err != nil {
		return 0, err
	}
	if err := WriteGlobalWords(m, colIdxA, rev.ColIdx); err != nil {
		return 0, err
	}
	if err := WriteGlobalWords(m, weightA, rev.Weight); err != nil {
		return 0, err
	}
	if err := WriteGlobalWords(m, distA, dist); err != nil {
		return 0, err
	}
	ctrl := []uint32{uint32(g.N), 0, 0, uint32(nWorkers), uint32(g.N + 1),
		rowPtrA, colIdxA, weightA, distA}
	return distA, WriteGlobalWords(m, base, ctrl)
}

// RunBFS runs the kernel on the unit-weight graph: the distances are
// BFS levels.
func RunBFS(m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*WorkloadResult, error) {
	return RunSSSP(m, g.Unweighted(), src, workers, maxCycles)
}

// SpreadWorkers returns n workers spread round-robin across healthy
// tiles (core 0 of every tile first, then core 1, ...), maximizing
// placement diversity — the opposite of AllWorkers' packed order.
func SpreadWorkers(m *Machine, n int) []WorkerRef {
	var tiles []*Tile
	m.grid.All(func(c geom.Coord) {
		if t := m.Tile(c); t != nil {
			tiles = append(tiles, t)
		}
	})
	var out []WorkerRef
	for core := 0; len(out) < n; core++ {
		if core >= m.Cfg.CoresPerTile {
			break
		}
		for _, t := range tiles {
			if len(out) >= n {
				break
			}
			if core < len(t.Cores) {
				out = append(out, WorkerRef{Tile: t.Coord, Core: core})
			}
		}
	}
	return out
}

// AllWorkers returns one WorkerRef per core of every healthy tile, up
// to max (0 = no limit), in row-major tile order.
func AllWorkers(m *Machine, max int) []WorkerRef {
	var out []WorkerRef
	m.grid.All(func(c geom.Coord) {
		t := m.Tile(c)
		if t == nil {
			return
		}
		for i := range t.Cores {
			if max > 0 && len(out) >= max {
				return
			}
			out = append(out, WorkerRef{Tile: c, Core: i})
		}
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
