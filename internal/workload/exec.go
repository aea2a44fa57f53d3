package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"waferscale/internal/sim"
)

// The executor compiles a validated graph onto a machine: place every
// tensor, then walk the deterministic topological order launching one
// WS-ISA kernel per operator. Operators run to quiescence before their
// dependents start, so the dependency schedule is trivially respected
// and — because each kernel is owner-computes with no atomics — the
// output bytes are a pure function of the graph, independent of
// topology, placement or host parallelism. Cycle counts are where
// topologies and placements differ, and those are what the report
// captures per operator.

// Options configures one graph execution.
type Options struct {
	// Placement names the policy ("" = rowmajor).
	Placement string
	// WorkersPerOp bounds the cores launched per operator (default 8).
	WorkersPerOp int
	// OpBudget is the per-operator cycle budget (default 4,000,000) —
	// the never-hang bound; exceeding it fails the run, which ends at
	// that operator (later operators are not launched).
	OpBudget int64
}

func (o Options) withDefaults() Options {
	if o.WorkersPerOp <= 0 {
		o.WorkersPerOp = 8
	}
	if o.OpBudget <= 0 {
		o.OpBudget = 4_000_000
	}
	return o
}

// OpMetrics is one operator's row in the report.
type OpMetrics struct {
	ID      string `json:"id"`
	Kind    OpKind `json:"kind"`
	Workers int    `json:"workers"`
	// Cycles the operator held the machine; zero for host-written
	// inputs.
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
	RemoteOps    int64 `json:"remoteOps"`
	// Utilization is retired instructions per worker-cycle.
	Utilization float64 `json:"utilization"`
	// BandwidthBPC is NoC payload bytes moved per cycle (4 bytes per
	// remote op).
	BandwidthBPC float64 `json:"bandwidthBPC"`
	// Backpressure is the fraction of worker-cycles spent stalled on
	// remote operations.
	Backpressure float64 `json:"backpressure"`

	// Chaos attribution: degradation work that happened while this
	// operator held the machine.
	Retried     int64 `json:"retried,omitempty"`
	Relayed     int64 `json:"relayed,omitempty"`
	TilesKilled int   `json:"tilesKilled,omitempty"`
	Remapped    int   `json:"remapped,omitempty"`

	// Failed marks an operator that faulted workers, lost its output
	// window, or ran out of budget.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`

	// expired marks an operator that ran out of budget. Its cores are
	// still running, so no later operator could quiesce: the run ends.
	expired bool
}

// WorkloadReport is the per-run account: one row per operator plus
// end-to-end totals and the machine's degradation report.
type WorkloadReport struct {
	Graph     string `json:"graph"`
	Topology  string `json:"topology"`
	Placement string `json:"placement"`

	Ops []OpMetrics `json:"ops"`

	// TotalCycles is the serial end-to-end schedule length.
	TotalCycles int64 `json:"totalCycles"`
	// CriticalPathCycles is the DAG's longest path under the measured
	// per-op cycles — what a perfectly parallel scheduler would pay.
	CriticalPathCycles int64 `json:"criticalPathCycles"`
	// CriticalPath lists the op IDs on that path, in execution order.
	CriticalPath []string `json:"criticalPath,omitempty"`
	Instructions int64    `json:"instructions"`
	RemoteOps    int64    `json:"remoteOps"`

	// Completed is true when every operator ran to quiescence without
	// faults; FailedOp names the first operator that did not.
	Completed bool   `json:"completed"`
	FailedOp  string `json:"failedOp,omitempty"`

	Degradation sim.DegradationReport `json:"degradation"`
}

// String renders the report as an aligned table.
func (r *WorkloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %q on %s/%s: %d ops, %d cycles (critical path %d)\n",
		r.Graph, r.Topology, r.Placement, len(r.Ops), r.TotalCycles, r.CriticalPathCycles)
	fmt.Fprintf(&b, "%-12s %-12s %3s %10s %8s %7s %7s %7s %s\n",
		"op", "kind", "w", "cycles", "instr", "util", "bw", "stall", "notes")
	for _, op := range r.Ops {
		notes := ""
		if op.TilesKilled > 0 {
			notes = fmt.Sprintf("%d tile(s) killed mid-op", op.TilesKilled)
		}
		if op.Failed {
			notes += " FAILED: " + op.Error
		}
		fmt.Fprintf(&b, "%-12s %-12s %3d %10d %8d %6.1f%% %7.2f %6.1f%% %s\n",
			op.ID, op.Kind, op.Workers, op.Cycles, op.Instructions,
			op.Utilization*100, op.BandwidthBPC, op.Backpressure*100, notes)
	}
	if !r.Completed {
		fmt.Fprintf(&b, "INCOMPLETE: failed at %q\n", r.FailedOp)
	}
	return b.String()
}

// Kernel programs are immutable once assembled; share them process-wide.
var kernelProgs = sync.OnceValues(assembleKernels)

// Run executes g on m and returns every operator's output tensor (for
// differential verification) plus the report. See RunCtx.
func Run(m *sim.Machine, g *Graph, opt Options) (map[string][]int32, *WorkloadReport, error) {
	return RunCtx(context.Background(), m, g, opt)
}

// RunCtx compiles and executes the graph. A hard error (context cancel,
// invalid graph, kernel fault on a healthy machine) aborts; degradation
// under an attached chaos schedule does not — the run presses on with
// the surviving tiles, marks affected operators failed, and reports
// what happened, so callers can measure survival instead of crashing.
func RunCtx(ctx context.Context, m *sim.Machine, g *Graph, opt Options) (map[string][]int32, *WorkloadReport, error) {
	opt = opt.withDefaults()
	shapes, err := g.Shapes()
	if err != nil {
		return nil, nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	pl, err := Place(m, g, opt.Placement)
	if err != nil {
		return nil, nil, err
	}

	rep := &WorkloadReport{
		Graph:     g.Name,
		Topology:  m.TopologyName(),
		Placement: pl.Policy,
		Completed: true,
	}
	outputs := make(map[string][]int32, len(g.Ops))
	startCycle := m.Cycle()

	for _, idx := range order {
		op := &g.Ops[idx]
		om, opErr := runOp(ctx, m, g, idx, shapes, pl, opt, outputs)
		if opErr != nil {
			return nil, nil, opErr
		}
		rep.Ops = append(rep.Ops, om)
		rep.Instructions += om.Instructions
		rep.RemoteOps += om.RemoteOps
		if om.Failed && rep.Completed {
			rep.Completed = false
			rep.FailedOp = op.ID
		}
		if om.expired {
			break
		}
	}

	rep.TotalCycles = m.Cycle() - startCycle
	rep.Degradation = m.Degradation()
	criticalPath(g, rep)
	return outputs, rep, nil
}

// runOp executes one operator: inputs are host-written; compute ops
// launch their kernel on a deterministic worker set and read the output
// back. Chaos-tolerant failures (killed workers, lost windows, budget
// expiry on a degraded machine) land in the metrics; anything else is a
// hard error.
func runOp(ctx context.Context, m *sim.Machine, g *Graph, idx int, shapes map[string]Shape, pl *Plan, opt Options, outputs map[string][]int32) (OpMetrics, error) {
	op := &g.Ops[idx]
	sh := shapes[op.ID]
	om := OpMetrics{ID: op.ID, Kind: op.Kind}
	fail := func(format string, args ...any) (OpMetrics, error) {
		err := fmt.Errorf(format, args...)
		if !m.Degradation().Degraded() {
			return om, fmt.Errorf("workload: op %q: %w", op.ID, err)
		}
		om.Failed = true
		om.Error = err.Error()
		return om, nil
	}

	base := pl.Tensors[op.ID]
	if op.Kind == KindInput {
		data := inputData(g, idx)
		if err := sim.WriteGlobalWords(m, base, data); err != nil {
			return fail("writing input: %v", err)
		}
		outputs[op.ID] = data
		return om, nil
	}

	progs, err := kernelProgs()
	if err != nil {
		return om, err
	}
	ctrl, err := ctrlWords(op, sh, shapes, pl)
	if err != nil {
		return om, err
	}
	ws := pl.workers(m, g, idx, opt.WorkersPerOp)
	om.Workers = len(ws)
	if len(ws) == 0 {
		return fail("no live cores left to run on")
	}
	// The worker count is a kernel parameter (the stride), written after
	// the count is known.
	ctrl[ctrlWorkerSlot(op.Kind)] = uint32(len(ws))
	if err := sim.WriteGlobalWords(m, pl.Ctrl[op.ID], ctrl); err != nil {
		return fail("writing ctrl: %v", err)
	}

	c0, r0 := m.Cycle(), m.RemoteRequests
	lat0 := m.RemoteLatency
	d0 := m.Degradation()
	runErr := sim.RunKernel(ctx, m, progs[op.Kind], pl.Ctrl[op.ID], ws, opt.OpBudget)
	var budget *sim.BudgetError
	timedOut := errors.As(runErr, &budget)
	if runErr != nil && !timedOut {
		return om, fmt.Errorf("workload: op %q: %w", op.ID, runErr) // cancellation, or a worker that would not load
	}

	// Collect metrics before judging success so even failed ops are
	// attributed their cycles and degradation work.
	om.Cycles = m.Cycle() - c0
	om.RemoteOps = m.RemoteRequests - r0
	d1 := m.Degradation()
	om.Retried = d1.RetriedOps - d0.RetriedOps
	om.Relayed = (d1.RelayedRequests + d1.RelayedResponses) - (d0.RelayedRequests + d0.RelayedResponses)
	om.TilesKilled = len(d1.KilledTiles) - len(d0.KilledTiles)
	om.Remapped = d1.RemappedWindows - d0.RemappedWindows
	var faults []string
	for _, w := range ws {
		t := m.Tile(w.Tile)
		if t == nil {
			continue // tile died mid-op; counted via TilesKilled
		}
		om.Instructions += t.Cores[w.Core].Instret
		if err := t.Cores[w.Core].Err; err != nil {
			faults = append(faults, err.Error())
		}
	}
	if wc := om.Cycles * int64(len(ws)); wc > 0 {
		om.Utilization = float64(om.Instructions) / float64(wc)
		om.Backpressure = float64(m.RemoteLatency-lat0) / float64(wc)
	}
	if om.Cycles > 0 {
		om.BandwidthBPC = 4 * float64(om.RemoteOps) / float64(om.Cycles)
	}

	if timedOut {
		om.expired = true
		return fail("budget of %d cycles expired", opt.OpBudget)
	}
	if len(faults) > 0 {
		return fail("%d worker(s) faulted: %s", len(faults), faults[0])
	}

	out, err := sim.ReadGlobalWords(m, base, sh.Rows*sh.Cols)
	if err != nil {
		return fail("reading output: %v", err)
	}
	outputs[op.ID] = out
	return om, nil
}

// ctrlWorkerSlot returns the ctrl word index holding the worker count
// for each kernel's layout.
func ctrlWorkerSlot(kind OpKind) int {
	switch kind {
	case KindGEMM:
		return 3 // M N K W ...
	case KindElementwise, KindScatter, KindGather:
		return 1 // n W ...
	default:
		return 2 // n/P D W ...
	}
}

// ctrlWords builds an operator's control block (worker-count slot left
// zero; the launcher fills it).
func ctrlWords(op *Op, sh Shape, shapes map[string]Shape, pl *Plan) ([]uint32, error) {
	in := func(i int) uint32 { return pl.Tensors[op.Inputs[i]] }
	out := pl.Tensors[op.ID]
	switch op.Kind {
	case KindGEMM:
		a := shapes[op.Inputs[0]]
		return []uint32{uint32(a.Rows), uint32(sh.Cols), uint32(a.Cols), 0, in(0), in(1), out}, nil
	case KindElementwise:
		var fn uint32
		y := in(0)
		switch op.Fn {
		case "relu":
			fn = 0
		case "add":
			fn, y = 1, in(1)
		case "mul":
			fn, y = 2, in(1)
		}
		return []uint32{uint32(sh.Rows * sh.Cols), 0, fn, in(0), y, out}, nil
	case KindAttention:
		return []uint32{uint32(sh.Rows), uint32(sh.Cols), 0, in(0), in(1), out}, nil
	case KindMoEDispatch:
		return []uint32{uint32(sh.Rows), uint32(sh.Cols), 0, in(0), in(1), out}, nil
	case KindAllReduce:
		return []uint32{uint32(sh.Rows), uint32(sh.Cols), 0, in(0), out}, nil
	case KindBroadcast:
		return []uint32{uint32(op.Parts), uint32(sh.Cols), 0, in(0), out}, nil
	case KindScatter, KindGather:
		return []uint32{uint32(sh.Rows * sh.Cols), 0, in(0), out}, nil
	}
	return nil, fmt.Errorf("workload: op %q has no kernel for kind %q", op.ID, op.Kind)
}

// criticalPath computes the DAG's longest path under the measured
// per-op cycles and writes it into the report.
func criticalPath(g *Graph, rep *WorkloadReport) {
	cycles := make(map[string]int64, len(rep.Ops))
	for _, om := range rep.Ops {
		cycles[om.ID] = om.Cycles
	}
	// rep.Ops is in execution (topological) order, so one forward pass
	// suffices.
	dist := make(map[string]int64, len(rep.Ops))
	prev := make(map[string]string, len(rep.Ops))
	var bestID string
	var best int64 = -1
	for _, om := range rep.Ops {
		op := g.Op(om.ID)
		var d int64
		for _, in := range op.Inputs {
			if dist[in] > d {
				d = dist[in]
				prev[om.ID] = in
			}
		}
		d += cycles[om.ID]
		dist[om.ID] = d
		if d > best {
			best, bestID = d, om.ID
		}
	}
	rep.CriticalPathCycles = best
	var path []string
	for id := bestID; id != ""; id = prev[id] {
		path = append(path, id)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	rep.CriticalPath = path
}

// CompareOutputs diffs a wafer run against the host reference and
// returns the mismatching op IDs (empty = bit-identical).
func CompareOutputs(got, want map[string][]int32) []string {
	var bad []string
	for id, w := range want {
		g, ok := got[id]
		if !ok || len(g) != len(w) {
			bad = append(bad, id)
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				bad = append(bad, id)
				break
			}
		}
	}
	return bad
}
