package main

import (
	"math"
	"testing"
	"time"
)

// TestSelfTimesSyntheticTree checks self time on a hand-built tree: two
// children that overlap (as calls from a two-worker pool do), a
// grandchild, and an aggregate with an aggregate nested in it.
func TestSelfTimesSyntheticTree(t *testing.T) {
	t.Parallel()
	tr := &tracer{}
	tr.spans = []*span{
		{ID: 1, Name: "op", Start: 0, End: 100, Total: 100, Count: 1},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40, Total: 30, Count: 1},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60, Total: 30, Count: 1},
		{ID: 4, Parent: 1, Name: "step", Start: 60, End: 95, Total: 10, Count: 5, Agg: true},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20, Total: 5, Count: 1},
		{ID: 6, Parent: 4, Name: "inject", Start: 61, End: 94, Total: 4, Count: 2, Agg: true},
	}
	want := map[int]int64{
		1: 100 - 50 - 10, // children cover the union [10, 60] plus the aggregate's 10
		2: 30 - 5,
		3: 30,
		4: 10 - 4,
		5: 5,
		6: 4,
	}
	got := selfTimes(tr.spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(span %d) = %d, want %d", id, got[id], w)
		}
	}
	sum := tr.summary()
	if sum.ops != 1 {
		t.Errorf("ops = %d, want 1", sum.ops)
	}
	// The overlap of a and b is counted in both: 10 ns over the op.
	if sum.selfSumPct != 110 {
		t.Errorf("selfSumPct = %v, want 110", sum.selfSumPct)
	}
	if got := sum.perCall("inject", time.Nanosecond); got != 2 {
		t.Errorf("perCall(inject) = %v ns, want 2", got)
	}
	if got := sum.perOp("step", time.Nanosecond); got != 6 {
		t.Errorf("perOp(step) = %v ns, want 6", got)
	}
}

func TestUnionLength(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {2, 3}}, 10},
		{[][2]int64{{5, 8}, {0, 2}, {1, 3}}, 6},
		{[][2]int64{{0, 4}, {4, 6}}, 6},
	} {
		if got := unionLength(tc.iv); got != tc.want {
			t.Errorf("unionLength(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

// TestRecorderNesting runs the real recorder: sequential children and
// aggregates nest inside their op, so self times sum to the op's time.
func TestRecorderNesting(t *testing.T) {
	t.Parallel()
	tr := newTracer()
	for op := 1; op <= 3; op++ {
		root := tr.root(op, 0, "op")
		sp := root.child("layer")
		time.Sleep(time.Millisecond)
		sp.end()
		agg := root.agg("call")
		for i := 0; i < 4; i++ {
			t0 := time.Now()
			time.Sleep(100 * time.Microsecond)
			agg.add(t0)
		}
		root.end()
	}
	sum := tr.summary()
	if sum.ops != 3 || sum.calls["call"] != 12 || sum.calls["layer"] != 3 {
		t.Fatalf("ops %d, calls %v", sum.ops, sum.calls)
	}
	if math.Abs(sum.selfSumPct-100) > 1e-9 {
		t.Errorf("selfSumPct = %v, want 100 for non-overlapping spans", sum.selfSumPct)
	}
	if sum.perOp("layer", time.Millisecond) < 1 {
		t.Errorf("layer self time %v ms per op, want >= 1", sum.perOp("layer", time.Millisecond))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	t.Parallel()
	var tr *tracer
	root := tr.root(1, 0, "op")
	root.child("x").end()
	root.agg("y").add(time.Now())
	root.childAt("z", time.Now(), time.Now())
	root.end()
	if sum := tr.summary(); sum.ops != 0 || len(sum.self) != 0 {
		t.Errorf("nil tracer summary = %+v", sum)
	}
}
