package sim

import (
	"context"
	"fmt"
)

// The WS-ISA launch convention, shared by this package's kernels and
// internal/workload's operator kernels: the host writes a kernel's
// inputs and control block into shared memory with WriteGlobalWords,
// RunKernel loads the program on every worker and writes worker k's
// private parameter block at paramBase (+0 its id k, +4 the control
// block address), the kernel reads both through KernelPrelude, and the
// host reads the results back with ReadGlobalWords.
const paramBase uint32 = 0xF000

// KernelPrelude is every kernel's entry sequence: it loads the worker
// id into r2 and the control block address into r3, and parks r1 at
// the private spill base (0xF100).
const KernelPrelude = `
start:
    la   r1, 0xF000
    lw   r2, 0(r1)        ; worker id
    lw   r3, 4(r1)        ; ctrl block address
    la   r1, 0xF100       ; private parameter cache
`

// RunKernel loads prog on every worker, writes worker k's parameter
// block (its id k and ctrlBase), and runs the machine for at most
// maxCycles. It returns m.RunCtx's result: nil once every core halted
// or faulted, a *BudgetError, or ctx.Err(); a worker that cannot be
// loaded is an error before anything runs. Judging faulted cores and
// budget expiry is the caller's call.
func RunKernel(ctx context.Context, m *Machine, prog []uint32, ctrlBase uint32, workers []WorkerRef, maxCycles int64) error {
	for wid, w := range workers {
		if err := m.LoadProgram(w.Tile, w.Core, prog); err != nil {
			return err
		}
		if err := m.WritePrivate32(w.Tile, w.Core, paramBase, uint32(wid)); err != nil {
			return err
		}
		if err := m.WritePrivate32(w.Tile, w.Core, paramBase+4, ctrlBase); err != nil {
			return err
		}
	}
	return m.RunCtx(ctx, maxCycles)
}

// WriteGlobalWords stores vals as consecutive 32-bit words of shared
// memory from addr.
func WriteGlobalWords[T int32 | uint32](m *Machine, addr uint32, vals []T) error {
	for i, v := range vals {
		if err := m.WriteGlobal32(addr+uint32(4*i), uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadGlobalWords reads n consecutive 32-bit words of shared memory
// from addr.
func ReadGlobalWords(m *Machine, addr uint32, n int) ([]int32, error) {
	out := make([]int32, n)
	for i := range out {
		v, err := m.ReadGlobal32(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = int32(v)
	}
	return out, nil
}

// launch runs a kernel source on the workers with the strict verdict
// of RunSSSP, RunMatVec and RunHistogram: a budget expiry or a faulted
// core is an error. On success it returns the run's stats.
func launch(m *Machine, source string, ctrlBase uint32, workers []WorkerRef, maxCycles int64) (*WorkloadResult, error) {
	prog, err := assembleKernel(source)
	if err != nil {
		return nil, err
	}
	if err := RunKernel(context.Background(), m, prog, ctrlBase, workers, maxCycles); err != nil {
		return nil, err
	}
	if faults := m.Faults(); len(faults) > 0 {
		return nil, fmt.Errorf("sim: cores faulted: %v", faults[0])
	}
	res := &WorkloadResult{Cycles: m.Cycle()}
	for _, w := range workers {
		res.Instructions += m.Tile(w.Tile).Cores[w.Core].Instret
	}
	res.RemoteOps = m.RemoteRequests
	res.RemoteLatency = m.AvgRemoteLatency()
	return res, nil
}

// assembleKernel assembles one of this package's kernel sources.
func assembleKernel(source string) ([]uint32, error) {
	prog, err := Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("sim: kernel does not assemble: %w", err)
	}
	return prog, nil
}
