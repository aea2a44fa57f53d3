package workload

import (
	"fmt"
	"math/rand"
)

// Pure-Go reference executors, one per operator kind. They are the
// oracle the wafer execution is differentially tested against: the
// WS-ISA kernels must reproduce these results bit for bit (int32
// wraparound arithmetic on both sides), on every topology.

// inputData materializes the tensor of an input op: explicit Data when
// present, otherwise contents drawn from the graph seed and the op's
// declaration index — a pure function of the graph, so the host
// reference and the machine layout agree without coordination.
func inputData(g *Graph, opIdx int) []int32 {
	op := &g.Ops[opIdx]
	n := op.Rows * op.Cols
	if len(op.Data) > 0 {
		return append([]int32(nil), op.Data...)
	}
	rng := rand.New(rand.NewSource(g.Seed + int64(opIdx)*7919))
	out := make([]int32, n)
	for i := range out {
		if op.Max > 0 {
			out[i] = int32(rng.Intn(op.Max))
		} else {
			out[i] = int32(rng.Intn(19) - 9)
		}
	}
	return out
}

// Reference executes the whole graph on the host and returns every
// operator's output tensor (row-major flattened), keyed by op ID.
func Reference(g *Graph) (map[string][]int32, error) {
	shapes, err := g.Shapes()
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int32, len(g.Ops))
	for _, idx := range order {
		op := &g.Ops[idx]
		t, err := referenceOp(g, idx, shapes, out)
		if err != nil {
			return nil, err
		}
		out[op.ID] = t
	}
	return out, nil
}

// referenceOp computes one operator from its already-computed inputs.
func referenceOp(g *Graph, opIdx int, shapes map[string]Shape, tensors map[string][]int32) ([]int32, error) {
	op := &g.Ops[opIdx]
	in := func(i int) []int32 { return tensors[op.Inputs[i]] }
	inSh := func(i int) Shape { return shapes[op.Inputs[i]] }
	switch op.Kind {
	case KindInput:
		return inputData(g, opIdx), nil
	case KindGEMM:
		a, b := in(0), in(1)
		m, k, n := inSh(0).Rows, inSh(0).Cols, inSh(1).Cols
		c := make([]int32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc int32
				for p := 0; p < k; p++ {
					acc += a[i*k+p] * b[p*n+j]
				}
				c[i*n+j] = acc
			}
		}
		return c, nil
	case KindElementwise:
		x := in(0)
		out := make([]int32, len(x))
		switch op.Fn {
		case "relu":
			for i, v := range x {
				if v > 0 {
					out[i] = v
				}
			}
		case "add":
			y := in(1)
			for i, v := range x {
				out[i] = v + y[i]
			}
		case "mul":
			y := in(1)
			for i, v := range x {
				out[i] = v * y[i]
			}
		}
		return out, nil
	case KindAttention:
		idx, table := in(0), in(1)
		r, d := inSh(1).Rows, inSh(1).Cols
		out := make([]int32, len(idx)*d)
		for i, v := range idx {
			if v < 0 || int(v) >= r {
				return nil, fmt.Errorf("workload: attention %q index[%d] = %d outside table rows %d", op.ID, i, v, r)
			}
			copy(out[i*d:(i+1)*d], table[int(v)*d:(int(v)+1)*d])
		}
		return out, nil
	case KindMoEDispatch:
		route, x := in(0), in(1)
		d := inSh(1).Cols
		out := make([]int32, len(x))
		for i, ri := range route {
			if ri < 0 || int(ri) >= op.Experts {
				return nil, fmt.Errorf("workload: moedispatch %q route[%d] = %d outside %d experts", op.ID, i, ri, op.Experts)
			}
			// Stable expert-major position: tokens routed to lower experts
			// first, original order preserved within an expert. The kernel
			// computes the same position with an O(n) scan per token.
			pos := 0
			for j, rj := range route {
				if rj < ri || (rj == ri && j < i) {
					pos++
				}
			}
			copy(out[pos*d:(pos+1)*d], x[i*d:(i+1)*d])
		}
		return out, nil
	case KindAllReduce:
		x := in(0)
		p, d := inSh(0).Rows, inSh(0).Cols
		out := make([]int32, len(x))
		for j := 0; j < d; j++ {
			var s int32
			for r := 0; r < p; r++ {
				s += x[r*d+j]
			}
			for r := 0; r < p; r++ {
				out[r*d+j] = s
			}
		}
		return out, nil
	case KindBroadcast:
		x := in(0)
		out := make([]int32, op.Parts*len(x))
		for p := 0; p < op.Parts; p++ {
			copy(out[p*len(x):(p+1)*len(x)], x)
		}
		return out, nil
	case KindScatter, KindGather:
		// Both collectives reshape without reordering: the flattened
		// row-major contents are identical, only the shape changes.
		return append([]int32(nil), in(0)...), nil
	}
	return nil, fmt.Errorf("workload: op %q has unknown kind %q", op.ID, op.Kind)
}
