package sim

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// SetFullScan switches m between the runnable-list fast path and the
// reference full scan. It lets differential tests in package sim_test,
// which may import internal/workload without an import cycle, step one
// machine on each engine.
func SetFullScan(m *Machine, on bool) { m.fullScan = on }

// SetSpinSkip switches RunCtx's spin fast-forward on or off, so
// differential tests can run one machine each way.
func SetSpinSkip(m *Machine, on bool) { m.spin.off = !on }

// SteppedCycles returns the cycles m's RunCtx calls stepped; cycles a
// fast-forward skipped are not counted.
func SteppedCycles(m *Machine) int64 { return m.spin.stepped }

// StateView renders every part of m's state that a later step, a
// counter or a readback can observe: the cycle and tag sequence, every
// machine, core and network counter, each core's live fields (a
// running core's stale remote op and a finished stall are left out, as
// nothing reads them), the queued responses and forwards, the network
// as AppendSpinState sees it and a hash of every memory. Two machines
// with equal views behave identically from here on.
func StateView(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d tagSeq %d running %d remote %d/%d conflicts %d\n",
		m.cycle, m.tagSeq, m.running, m.RemoteRequests, m.RemoteLatency, m.BankConflicts)
	fmt.Fprintf(&b, "degradation %+v\nnet %+v\n", m.Degradation(), m.net.Stats())
	h := fnv.New64a()
	hashMem := func(p *pagedMem) {
		for i, pg := range p.pages {
			if pg != nil {
				fmt.Fprintf(h, "%d:", i)
				h.Write(pg[:])
			}
		}
		h.Write([]byte{'|'})
	}
	for i, t := range m.tiles {
		if t == nil {
			continue
		}
		hashMem(&t.mem)
		for _, c := range t.Cores {
			hashMem(&c.priv)
			err := ""
			if c.Err != nil {
				err = c.Err.Error()
			}
			fmt.Fprintf(&b, "tile %d core %d: state %d pc %d regs %v instret %d stalls %d/%d retries %d err %q",
				i, c.idx, c.state, c.PC, c.Regs, c.Instret, c.StallFixed, c.StallRemote, c.RetryCycles, err)
			switch c.state {
			case coreStalled:
				fmt.Fprintf(&b, " until %d load r%d=%d", c.stallUntil, c.loadReg, c.loadVal)
			case coreRemote:
				fmt.Fprintf(&b, " rem %+v", c.rem)
			}
			b.WriteByte('\n')
		}
	}
	shadows := make([]int, 0, len(m.shadow))
	for i := range m.shadow {
		shadows = append(shadows, i)
	}
	sort.Ints(shadows)
	for _, i := range shadows {
		fmt.Fprintf(h, "shadow %d->%d", i, m.remap[i])
		hashMem(m.shadow[i])
	}
	fmt.Fprintf(&b, "memory %x\npending %+v\nforwards %+v\nnet state %x\n",
		h.Sum64(), m.pending, m.pendingFwd, m.net.AppendSpinState(nil, 0))
	return b.String()
}
