package sim

import (
	"fmt"
	"math/rand"

	"waferscale/internal/arch"
)

// Beyond the graph kernels, the paper's introduction motivates the
// machine with "highly parallel workloads such as graph processing,
// data analytics, and machine learning". Two more kernels cover the
// other two classes:
//
//   - MatVec (ML stand-in): y = A*x over a dense matrix in shared
//     memory; each worker owns strided rows, so the kernel is
//     embarrassingly parallel with heavy remote-read traffic.
//   - Histogram (analytics stand-in): workers scan strided slices of a
//     data array and count into shared bins with amoadd — an
//     atomics-heavy contention pattern.

// MatVecKernelSource is the WS-ISA dense matrix-vector product y = A*x,
// rows strided across workers (the worker id is the starting row).
// Control block: +0 n, +4 workers, +8 &A, +12 &x, +16 &y.
const MatVecKernelSource = KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; W
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; A
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; x
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; y
rloop:
    lw   r3, 8(r1)
    bge  r2, r3, done     ; row >= n
    li   r5, 0            ; acc
    lw   r4, 8(r1)
    mul  r6, r2, r4       ; row*n
    li   r7, 4
    mul  r6, r6, r7
    lw   r4, 16(r1)
    add  r6, r6, r4       ; &A[row][0]
    li   r8, 0            ; j
jloop:
    lw   r3, 8(r1)
    bge  r8, r3, jdone
    lw   r9, 0(r6)        ; A[row][j]
    li   r7, 4
    mul  r10, r8, r7
    lw   r11, 20(r1)
    add  r10, r10, r11
    lw   r10, 0(r10)      ; x[j]
    mul  r9, r9, r10
    add  r5, r5, r9
    addi r6, r6, 4
    addi r8, r8, 1
    beq  r0, r0, jloop
jdone:
    li   r7, 4
    mul  r9, r2, r7
    lw   r10, 24(r1)
    add  r9, r9, r10
    sw   r5, 0(r9)        ; y[row] = acc
    lw   r3, 12(r1)
    add  r2, r2, r3       ; row += W
    beq  r0, r0, rloop
done:
    halt
`

// HistogramKernelSource counts bins[data[i]]++ for strided i (the
// worker id is the starting index) with shared atomics.
// Control block: +0 nData, +4 workers, +8 &data, +12 &bins.
const HistogramKernelSource = KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; nData
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; W
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; data
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; bins
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done
    li   r7, 4
    mul  r5, r2, r7
    lw   r6, 16(r1)
    add  r5, r5, r6
    lw   r5, 0(r5)        ; v = data[i], a bin index
    mul  r5, r5, r7
    lw   r6, 20(r1)
    add  r5, r5, r6       ; &bins[v]
    li   r6, 1
    amoadd r8, r6, (r5)
    lw   r3, 12(r1)
    add  r2, r2, r3       ; i += W
    beq  r0, r0, iloop
done:
    halt
`

// RunMatVec lays out an n x n matrix and vector in shared memory, runs
// the kernel on the workers and returns y.
func RunMatVec(m *Machine, a [][]int32, x []int32, workers []WorkerRef, maxCycles int64) ([]int32, *WorkloadResult, error) {
	n := len(a)
	if n == 0 || len(x) != n {
		return nil, nil, fmt.Errorf("sim: matvec shapes: %dx? * %d", n, len(x))
	}
	for i, row := range a {
		if len(row) != n {
			return nil, nil, fmt.Errorf("sim: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	if len(workers) == 0 {
		return nil, nil, fmt.Errorf("sim: no workers")
	}
	base := arch.GlobalBase
	aAddr := base + ctrlSize
	xAddr := aAddr + uint32(4*n*n)
	yAddr := xAddr + uint32(4*n)
	for i, row := range a {
		if err := WriteGlobalWords(m, aAddr+uint32(4*i*n), row); err != nil {
			return nil, nil, err
		}
	}
	if err := WriteGlobalWords(m, xAddr, x); err != nil {
		return nil, nil, err
	}
	ctrl := []uint32{uint32(n), uint32(len(workers)), aAddr, xAddr, yAddr}
	if err := WriteGlobalWords(m, base, ctrl); err != nil {
		return nil, nil, err
	}
	res, err := launch(m, MatVecKernelSource, base, workers, maxCycles)
	if err != nil {
		return nil, nil, err
	}
	y, err := ReadGlobalWords(m, yAddr, n)
	if err != nil {
		return nil, nil, err
	}
	return y, res, nil
}

// RunHistogram counts the occurrences of each bin index in data.
func RunHistogram(m *Machine, data []int32, nBins int, workers []WorkerRef, maxCycles int64) ([]int32, *WorkloadResult, error) {
	if nBins <= 0 {
		return nil, nil, fmt.Errorf("sim: need bins")
	}
	for i, v := range data {
		if v < 0 || int(v) >= nBins {
			return nil, nil, fmt.Errorf("sim: data[%d] = %d outside %d bins", i, v, nBins)
		}
	}
	if len(workers) == 0 {
		return nil, nil, fmt.Errorf("sim: no workers")
	}
	base := arch.GlobalBase
	dataAddr := base + ctrlSize
	binsAddr := dataAddr + uint32(4*len(data))
	if err := WriteGlobalWords(m, dataAddr, data); err != nil {
		return nil, nil, err
	}
	if err := WriteGlobalWords(m, binsAddr, make([]int32, nBins)); err != nil {
		return nil, nil, err
	}
	ctrl := []uint32{uint32(len(data)), uint32(len(workers)), dataAddr, binsAddr}
	if err := WriteGlobalWords(m, base, ctrl); err != nil {
		return nil, nil, err
	}
	res, err := launch(m, HistogramKernelSource, base, workers, maxCycles)
	if err != nil {
		return nil, nil, err
	}
	bins, err := ReadGlobalWords(m, binsAddr, nBins)
	if err != nil {
		return nil, nil, err
	}
	return bins, res, nil
}

// RandomMatrix generates an n x n matrix with entries in [-9, 9].
func RandomMatrix(n int, seed int64) ([][]int32, []int32) {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]int32, n)
	for i := range a {
		a[i] = make([]int32, n)
		for j := range a[i] {
			a[i][j] = int32(rng.Intn(19) - 9)
		}
	}
	x := make([]int32, n)
	for j := range x {
		x[j] = int32(rng.Intn(19) - 9)
	}
	return a, x
}

// ReferenceMatVec is the host oracle.
func ReferenceMatVec(a [][]int32, x []int32) []int32 {
	y := make([]int32, len(a))
	for i, row := range a {
		var acc int32
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
	return y
}

// ReferenceHistogram is the host oracle.
func ReferenceHistogram(data []int32, nBins int) []int32 {
	bins := make([]int32, nBins)
	for _, v := range data {
		bins[v]++
	}
	return bins
}
