// Package workload is the operator-graph layer: LLM-era task graphs —
// GEMMs, elementwise activations, attention-shaped gathers, MoE-style
// dispatch, and on-wafer collectives — compiled onto sim.Machine.
//
// The paper evaluates its wafer with graph kernels (BFS/SSSP), but the
// modern case for waferscale integration is coarse-operator dataflow:
// a DAG of operators with dependency scheduling, placed over the tile
// array with per-tile working sets, its collectives lowered onto the
// NoC. This package provides
//
//   - an operator-graph IR (Graph/Op) with validation — acyclicity,
//     shape and operand checks — and a deterministic topological
//     schedule;
//   - pluggable placement policies (row-major, blocked,
//     bandwidth-aware) that map every operator's output tensor, and the
//     workers that compute it, onto tile regions of the global address
//     space;
//   - WS-ISA kernels for every operator kind, launched one dependency
//     level at a time so execution is reproducible bit for bit, on
//     every NoC topology;
//   - per-operator metrics (utilization, NoC bandwidth, backpressure,
//     critical-path cycles) rolled into a Report;
//   - chaos-awareness: a tile killed mid-operator rides the machine's
//     existing retry/relay/degradation path, the report attributes the
//     stall and remapping to the affected operator, and RunChaosCtx
//     drives Monte-Carlo survival curves per graph.
//
// Every operator has a pure-Go reference executor (reference.go); the
// machine execution is differentially tested against it.
package workload

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind names an operator class.
type OpKind string

// The operator vocabulary. Tensors are dense int32 matrices
// [Rows x Cols]; every op produces exactly one output tensor named by
// its ID.
const (
	// KindInput is a leaf: a host-written tensor (explicit Data or
	// seeded random contents; Max > 0 draws index values in [0, Max)).
	KindInput OpKind = "input"
	// KindGEMM multiplies Inputs[0] [M x K] by Inputs[1] [K x N].
	KindGEMM OpKind = "gemm"
	// KindElementwise applies Fn ("relu" on one input; "add"/"mul" on
	// two same-shape inputs) element by element.
	KindElementwise OpKind = "elementwise"
	// KindAttention is the attention-shaped gather: Inputs[0] is an
	// index column [n x 1], Inputs[1] a table [R x D]; row i of the
	// output is table[idx[i]].
	KindAttention OpKind = "attention"
	// KindMoEDispatch routes token rows to experts: Inputs[0] is a route
	// column [n x 1] with values in [0, Experts), Inputs[1] the token
	// matrix [n x D]. The output is the stable expert-major permutation
	// of the tokens (tokens grouped by expert, original order preserved
	// within an expert) — deterministic, so the wafer result is
	// bit-comparable to the reference executor.
	KindMoEDispatch OpKind = "moedispatch"
	// KindAllReduce sums Inputs[0] [P x D] across its P partial rows and
	// hands every participant the reduced vector: output [P x D], each
	// row the column sums (reduce + broadcast, the all-reduce
	// collective).
	KindAllReduce OpKind = "allreduce"
	// KindBroadcast replicates the root row Inputs[0] [1 x D] to Parts
	// participants: output [Parts x D].
	KindBroadcast OpKind = "broadcast"
	// KindScatter splits the root row Inputs[0] [1 x N] into Parts
	// contiguous chunks: output [Parts x N/Parts]; N must divide evenly.
	KindScatter OpKind = "scatter"
	// KindGather concatenates Inputs[0] [P x C] into a single root row:
	// output [1 x P*C].
	KindGather OpKind = "gather"
)

// Op is one operator of the graph. Exactly the fields meaningful for
// its Kind are consulted; Validate rejects contradictions.
type Op struct {
	ID     string   `json:"id"`
	Kind   OpKind   `json:"kind"`
	Inputs []string `json:"inputs,omitempty"`

	// Input-op tensor description. Data, when present, must hold
	// Rows*Cols values; otherwise contents are drawn from the graph
	// seed: signed values in [-9, 9], or indices in [0, Max) when
	// Max > 0.
	Rows int     `json:"rows,omitempty"`
	Cols int     `json:"cols,omitempty"`
	Max  int     `json:"max,omitempty"`
	Data []int32 `json:"data,omitempty"`

	// Fn selects the elementwise function: relu | add | mul.
	Fn string `json:"fn,omitempty"`
	// Parts is the participant count for broadcast/scatter.
	Parts int `json:"parts,omitempty"`
	// Experts bounds the route values of a MoE dispatch.
	Experts int `json:"experts,omitempty"`
}

// Graph is an operator DAG. Seed determines the contents of input
// tensors without explicit Data; it is part of the graph's identity
// (two graphs with different seeds are different computations).
type Graph struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	Ops  []Op   `json:"ops"`
}

// Shape is a tensor's [rows, cols] dimensions.
type Shape struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

func (s Shape) elems() int { return s.Rows * s.Cols }

// Validate checks the graph: non-empty unique IDs, known kinds,
// resolvable acyclic dependencies, and per-kind operand/shape rules.
// It returns the first violation found.
func (g *Graph) Validate() error {
	_, err := g.Shapes()
	return err
}

// Shapes infers the output shape of every operator, running the full
// validation along the way.
func (g *Graph) Shapes() (map[string]Shape, error) {
	if len(g.Ops) == 0 {
		return nil, fmt.Errorf("workload: graph %q has no operators", g.Name)
	}
	byID := make(map[string]*Op, len(g.Ops))
	for i := range g.Ops {
		op := &g.Ops[i]
		if strings.TrimSpace(op.ID) == "" {
			return nil, fmt.Errorf("workload: op %d has an empty id", i)
		}
		if _, dup := byID[op.ID]; dup {
			return nil, fmt.Errorf("workload: duplicate op id %q", op.ID)
		}
		byID[op.ID] = op
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	shapes := make(map[string]Shape, len(g.Ops))
	for _, idx := range order {
		op := &g.Ops[idx]
		sh, err := inferShape(op, shapes)
		if err != nil {
			return nil, err
		}
		shapes[op.ID] = sh
	}
	return shapes, nil
}

// inferShape applies the per-kind operand rules. All dependency shapes
// are already known (callers walk in topological order).
func inferShape(op *Op, shapes map[string]Shape) (Shape, error) {
	in := func(i int) Shape { return shapes[op.Inputs[i]] }
	needInputs := func(n int) error {
		if len(op.Inputs) != n {
			return fmt.Errorf("workload: op %q (%s) wants %d inputs, has %d", op.ID, op.Kind, n, len(op.Inputs))
		}
		return nil
	}
	switch op.Kind {
	case KindInput:
		if len(op.Inputs) != 0 {
			return Shape{}, fmt.Errorf("workload: input op %q must not have inputs", op.ID)
		}
		if op.Rows < 1 || op.Cols < 1 {
			return Shape{}, fmt.Errorf("workload: input op %q needs rows/cols >= 1, got %dx%d", op.ID, op.Rows, op.Cols)
		}
		if len(op.Data) != 0 && len(op.Data) != op.Rows*op.Cols {
			return Shape{}, fmt.Errorf("workload: input op %q has %d data values, want %d", op.ID, len(op.Data), op.Rows*op.Cols)
		}
		if op.Max > 0 {
			for i, v := range op.Data {
				if v < 0 || int(v) >= op.Max {
					return Shape{}, fmt.Errorf("workload: input op %q data[%d] = %d outside [0, %d)", op.ID, i, v, op.Max)
				}
			}
		}
		return Shape{op.Rows, op.Cols}, nil
	case KindGEMM:
		if err := needInputs(2); err != nil {
			return Shape{}, err
		}
		a, b := in(0), in(1)
		if a.Cols != b.Rows {
			return Shape{}, fmt.Errorf("workload: gemm %q shapes %dx%d * %dx%d do not chain", op.ID, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		return Shape{a.Rows, b.Cols}, nil
	case KindElementwise:
		switch op.Fn {
		case "relu":
			if err := needInputs(1); err != nil {
				return Shape{}, err
			}
			return in(0), nil
		case "add", "mul":
			if err := needInputs(2); err != nil {
				return Shape{}, err
			}
			if in(0) != in(1) {
				return Shape{}, fmt.Errorf("workload: elementwise %q shapes %v != %v", op.ID, in(0), in(1))
			}
			return in(0), nil
		default:
			return Shape{}, fmt.Errorf("workload: elementwise %q fn %q (want relu|add|mul)", op.ID, op.Fn)
		}
	case KindAttention:
		if err := needInputs(2); err != nil {
			return Shape{}, err
		}
		idx, table := in(0), in(1)
		if idx.Cols != 1 {
			return Shape{}, fmt.Errorf("workload: attention %q index shape %dx%d, want n x 1", op.ID, idx.Rows, idx.Cols)
		}
		return Shape{idx.Rows, table.Cols}, nil
	case KindMoEDispatch:
		if err := needInputs(2); err != nil {
			return Shape{}, err
		}
		route, x := in(0), in(1)
		if route.Cols != 1 || route.Rows != x.Rows {
			return Shape{}, fmt.Errorf("workload: moedispatch %q route %dx%d does not match tokens %dx%d",
				op.ID, route.Rows, route.Cols, x.Rows, x.Cols)
		}
		if op.Experts < 1 {
			return Shape{}, fmt.Errorf("workload: moedispatch %q needs experts >= 1", op.ID)
		}
		return x, nil
	case KindAllReduce:
		if err := needInputs(1); err != nil {
			return Shape{}, err
		}
		return in(0), nil
	case KindBroadcast:
		if err := needInputs(1); err != nil {
			return Shape{}, err
		}
		if in(0).Rows != 1 {
			return Shape{}, fmt.Errorf("workload: broadcast %q root shape %dx%d, want 1 x d", op.ID, in(0).Rows, in(0).Cols)
		}
		if op.Parts < 1 {
			return Shape{}, fmt.Errorf("workload: broadcast %q needs parts >= 1", op.ID)
		}
		return Shape{op.Parts, in(0).Cols}, nil
	case KindScatter:
		if err := needInputs(1); err != nil {
			return Shape{}, err
		}
		if in(0).Rows != 1 {
			return Shape{}, fmt.Errorf("workload: scatter %q root shape %dx%d, want 1 x n", op.ID, in(0).Rows, in(0).Cols)
		}
		if op.Parts < 1 || in(0).Cols%op.Parts != 0 {
			return Shape{}, fmt.Errorf("workload: scatter %q cannot split %d columns into %d parts", op.ID, in(0).Cols, op.Parts)
		}
		return Shape{op.Parts, in(0).Cols / op.Parts}, nil
	case KindGather:
		if err := needInputs(1); err != nil {
			return Shape{}, err
		}
		return Shape{1, in(0).elems()}, nil
	default:
		return Shape{}, fmt.Errorf("workload: op %q has unknown kind %q", op.ID, op.Kind)
	}
}

// TopoOrder returns a deterministic topological schedule as indices
// into g.Ops: Kahn's algorithm with the ready set kept in declaration
// order, so the schedule — and everything derived from it, placement
// included — is a pure function of the graph. Unknown dependencies and
// cycles are errors.
func (g *Graph) TopoOrder() ([]int, error) {
	idxOf := make(map[string]int, len(g.Ops))
	for i := range g.Ops {
		idxOf[g.Ops[i].ID] = i
	}
	indeg := make([]int, len(g.Ops))
	succ := make([][]int, len(g.Ops))
	for i := range g.Ops {
		for _, dep := range g.Ops[i].Inputs {
			j, ok := idxOf[dep]
			if !ok {
				return nil, fmt.Errorf("workload: op %q depends on unknown op %q", g.Ops[i].ID, dep)
			}
			indeg[i]++
			succ[j] = append(succ[j], i)
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, len(g.Ops))
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(g.Ops) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, g.Ops[i].ID)
			}
		}
		return nil, fmt.Errorf("workload: graph %q has a dependency cycle through %v", g.Name, stuck)
	}
	return order, nil
}

// Op returns the operator with the given ID, or nil.
func (g *Graph) Op(id string) *Op {
	for i := range g.Ops {
		if g.Ops[i].ID == id {
			return &g.Ops[i]
		}
	}
	return nil
}
