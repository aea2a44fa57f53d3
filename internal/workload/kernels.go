package workload

import (
	"fmt"

	"waferscale/internal/sim"
)

// WS-ISA kernels, one per operator kind. Every kernel launches through
// sim.RunKernel and starts with sim.KernelPrelude, which hands it its
// worker id and control block address; ctrl parameters are cached into
// the private spill area. Work is strided: worker w of W owns output
// elements w, w+W, w+2W, ... — every output element has exactly one
// writer and no kernel needs atomics or barriers, which is what makes
// the wafer result a pure function of the input data (bit-identical
// across topologies and placements; only the cycle counts change).
//
// Control-block layouts (byte offsets in global memory):
//
//	gemm:        +0 M   +4 N   +8 K   +12 W  +16 &A    +20 &B  +24 &C
//	elementwise: +0 n   +4 W   +8 fn  +12 &X +16 &Y    +20 &out     (fn: 0 relu, 1 add, 2 mul)
//	attention:   +0 n   +4 D   +8 W   +12 &idx +16 &table +20 &out
//	moedispatch: +0 n   +4 D   +8 W   +12 &route +16 &X  +20 &out
//	allreduce:   +0 P   +4 D   +8 W   +12 &in  +16 &out
//	broadcast:   +0 P   +4 D   +8 W   +12 &in  +16 &out
//	copy:        +0 n   +4 W   +8 &in +12 &out             (scatter and gather)

// GEMMKernelSource: C[M x N] = A[M x K] * B[K x N], rows of C strided
// across workers.
const GEMMKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; M
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; N
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; K
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; W
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; A
    lw   r4, 20(r3)
    sw   r4, 28(r1)       ; B
    lw   r4, 24(r3)
    sw   r4, 32(r1)       ; C
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done     ; i >= M
    li   r5, 0            ; j
jloop:
    lw   r3, 12(r1)
    bge  r5, r3, inext    ; j >= N
    li   r6, 0            ; acc
    li   r7, 0            ; k
    lw   r3, 16(r1)
    mul  r8, r2, r3       ; i*K
    li   r9, 4
    mul  r8, r8, r9
    lw   r3, 24(r1)
    add  r8, r8, r3       ; &A[i][0]
    li   r9, 4
    mul  r10, r5, r9
    lw   r3, 28(r1)
    add  r10, r10, r3     ; &B[0][j]
kloop:
    lw   r3, 16(r1)
    bge  r7, r3, kdone
    lw   r11, 0(r8)       ; A[i][k]
    lw   r12, 0(r10)      ; B[k][j]
    mul  r11, r11, r12
    add  r6, r6, r11
    addi r8, r8, 4
    lw   r3, 12(r1)
    li   r12, 4
    mul  r12, r3, r12
    add  r10, r10, r12    ; B row stride = 4*N
    addi r7, r7, 1
    beq  r0, r0, kloop
kdone:
    lw   r3, 12(r1)
    mul  r12, r2, r3
    add  r12, r12, r5     ; i*N + j
    li   r3, 4
    mul  r12, r12, r3
    lw   r3, 32(r1)
    add  r12, r12, r3
    sw   r6, 0(r12)       ; C[i][j] = acc
    addi r5, r5, 1
    beq  r0, r0, jloop
inext:
    lw   r3, 20(r1)
    add  r2, r2, r3       ; i += W
    beq  r0, r0, iloop
done:
    halt
`

// ElementwiseKernelSource: out[i] = fn(x[i], y[i]) for strided i.
const ElementwiseKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; W
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; fn
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; X
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; Y
    lw   r4, 20(r3)
    sw   r4, 28(r1)       ; out
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done
    li   r3, 4
    mul  r4, r2, r3       ; byte offset
    lw   r5, 20(r1)
    add  r5, r5, r4
    lw   r5, 0(r5)        ; x
    lw   r6, 16(r1)       ; fn
    li   r7, 1
    beq  r6, r7, fadd
    li   r7, 2
    beq  r6, r7, fmul
    blt  r5, r0, relz     ; relu: negative -> 0
    beq  r0, r0, store
relz:
    li   r5, 0
    beq  r0, r0, store
fadd:
    lw   r6, 24(r1)
    add  r6, r6, r4
    lw   r6, 0(r6)
    add  r5, r5, r6
    beq  r0, r0, store
fmul:
    lw   r6, 24(r1)
    add  r6, r6, r4
    lw   r6, 0(r6)
    mul  r5, r5, r6
store:
    lw   r6, 28(r1)
    add  r6, r6, r4
    sw   r5, 0(r6)
    lw   r3, 12(r1)
    add  r2, r2, r3       ; i += W
    beq  r0, r0, iloop
done:
    halt
`

// AttentionKernelSource: out[i][:] = table[idx[i]][:], rows strided.
const AttentionKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; D
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; W
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; idx
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; table
    lw   r4, 20(r3)
    sw   r4, 28(r1)       ; out
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done
    li   r3, 4
    mul  r4, r2, r3       ; 4*i
    lw   r5, 20(r1)
    add  r5, r5, r4
    lw   r5, 0(r5)        ; r = idx[i]
    lw   r6, 12(r1)       ; D
    mul  r7, r5, r6
    li   r3, 4
    mul  r7, r7, r3
    lw   r8, 24(r1)
    add  r7, r7, r8       ; src = &table[r][0]
    mul  r8, r2, r6
    mul  r8, r8, r3
    lw   r9, 28(r1)
    add  r8, r8, r9       ; dst = &out[i][0]
    li   r9, 0            ; j
jloop:
    lw   r6, 12(r1)
    bge  r9, r6, jdone
    lw   r10, 0(r7)
    sw   r10, 0(r8)
    addi r7, r7, 4
    addi r8, r8, 4
    addi r9, r9, 1
    beq  r0, r0, jloop
jdone:
    lw   r3, 16(r1)
    add  r2, r2, r3       ; i += W
    beq  r0, r0, iloop
done:
    halt
`

// MoEDispatchKernelSource: token row i moves to its stable expert-major
// position, computed by scanning the route array — deterministic (no
// timing-dependent slot atomics), so it matches the reference executor
// bit for bit.
const MoEDispatchKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; D
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; W
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; route
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; X
    lw   r4, 20(r3)
    sw   r4, 28(r1)       ; out
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done
    li   r3, 4
    mul  r4, r2, r3
    lw   r5, 20(r1)
    add  r5, r5, r4
    lw   r5, 0(r5)        ; ri = route[i]
    li   r6, 0            ; pos
    li   r7, 0            ; j
    lw   r9, 20(r1)       ; &route[0]
ploop:
    lw   r3, 8(r1)
    bge  r7, r3, pdone
    lw   r10, 0(r9)       ; rj
    blt  r10, r5, pinc    ; rj < ri
    bne  r10, r5, pnext
    blt  r7, r2, pinc     ; rj == ri and j < i
    beq  r0, r0, pnext
pinc:
    addi r6, r6, 1
pnext:
    addi r9, r9, 4
    addi r7, r7, 1
    beq  r0, r0, ploop
pdone:
    lw   r7, 12(r1)       ; D
    mul  r8, r2, r7
    li   r3, 4
    mul  r8, r8, r3
    lw   r9, 24(r1)
    add  r8, r8, r9       ; src = &X[i][0]
    mul  r10, r6, r7
    mul  r10, r10, r3
    lw   r9, 28(r1)
    add  r10, r10, r9     ; dst = &out[pos][0]
    li   r11, 0
cloop:
    bge  r11, r7, cdone
    lw   r12, 0(r8)
    sw   r12, 0(r10)
    addi r8, r8, 4
    addi r10, r10, 4
    addi r11, r11, 1
    beq  r0, r0, cloop
cdone:
    lw   r3, 16(r1)
    add  r2, r2, r3       ; i += W
    beq  r0, r0, iloop
done:
    halt
`

// AllReduceKernelSource: columns strided across workers; each worker
// sums its columns over the P partial rows, then writes the sum back to
// every participant row (reduce + broadcast on the NoC).
const AllReduceKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; P
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; D
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; W
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; in
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; out
jloop:
    lw   r3, 12(r1)
    bge  r2, r3, done     ; j >= D
    li   r4, 0            ; s
    li   r5, 0            ; p
    li   r3, 4
    mul  r6, r2, r3       ; 4*j
    lw   r7, 20(r1)
    add  r7, r7, r6       ; &in[0][j]
    lw   r3, 12(r1)
    li   r8, 4
    mul  r8, r3, r8       ; row stride = 4*D
sloop:
    lw   r3, 8(r1)
    bge  r5, r3, sdone
    lw   r9, 0(r7)
    add  r4, r4, r9
    add  r7, r7, r8
    addi r5, r5, 1
    beq  r0, r0, sloop
sdone:
    li   r5, 0
    lw   r7, 24(r1)
    add  r7, r7, r6       ; &out[0][j]
wloop:
    lw   r3, 8(r1)
    bge  r5, r3, wdone
    sw   r4, 0(r7)
    add  r7, r7, r8
    addi r5, r5, 1
    beq  r0, r0, wloop
wdone:
    lw   r3, 16(r1)
    add  r2, r2, r3       ; j += W
    beq  r0, r0, jloop
done:
    halt
`

// BroadcastKernelSource: out[p][j] = in[0][j] for all P participants,
// columns strided across workers.
const BroadcastKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; P
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; D
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; W
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; in
    lw   r4, 16(r3)
    sw   r4, 24(r1)       ; out
jloop:
    lw   r3, 12(r1)
    bge  r2, r3, done     ; j >= D
    li   r3, 4
    mul  r6, r2, r3       ; 4*j
    lw   r4, 20(r1)
    add  r4, r4, r6
    lw   r4, 0(r4)        ; v = in[j]
    li   r5, 0            ; p
    lw   r7, 24(r1)
    add  r7, r7, r6       ; &out[0][j]
    lw   r3, 12(r1)
    li   r8, 4
    mul  r8, r3, r8       ; row stride = 4*D
wloop:
    lw   r3, 8(r1)
    bge  r5, r3, wdone
    sw   r4, 0(r7)
    add  r7, r7, r8
    addi r5, r5, 1
    beq  r0, r0, wloop
wdone:
    lw   r3, 16(r1)
    add  r2, r2, r3       ; j += W
    beq  r0, r0, jloop
done:
    halt
`

// CopyKernelSource: out[i] = in[i] for strided i — the data-movement
// core of the scatter and gather collectives (the reshape itself is
// free; the traffic is reading the root region and writing the
// scattered/gathered region across the NoC).
const CopyKernelSource = sim.KernelPrelude + `
    lw   r4, 0(r3)
    sw   r4, 8(r1)        ; n
    lw   r4, 4(r3)
    sw   r4, 12(r1)       ; W
    lw   r4, 8(r3)
    sw   r4, 16(r1)       ; in
    lw   r4, 12(r3)
    sw   r4, 20(r1)       ; out
iloop:
    lw   r3, 8(r1)
    bge  r2, r3, done
    li   r3, 4
    mul  r4, r2, r3
    lw   r5, 16(r1)
    add  r5, r5, r4
    lw   r5, 0(r5)
    lw   r6, 20(r1)
    add  r6, r6, r4
    sw   r5, 0(r6)
    lw   r3, 12(r1)
    add  r2, r2, r3
    beq  r0, r0, iloop
done:
    halt
`

// assembleKernels assembles every operator kernel once; the program
// words are immutable and shared across launches.
func assembleKernels() (map[OpKind][]uint32, error) {
	srcs := map[OpKind]string{
		KindGEMM:        GEMMKernelSource,
		KindElementwise: ElementwiseKernelSource,
		KindAttention:   AttentionKernelSource,
		KindMoEDispatch: MoEDispatchKernelSource,
		KindAllReduce:   AllReduceKernelSource,
		KindBroadcast:   BroadcastKernelSource,
		KindScatter:     CopyKernelSource,
		KindGather:      CopyKernelSource,
	}
	out := make(map[OpKind][]uint32, len(srcs))
	for kind, src := range srcs {
		words, err := sim.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("workload: %s kernel does not assemble: %w", kind, err)
		}
		out[kind] = words
	}
	return out, nil
}
