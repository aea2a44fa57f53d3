package sim

import (
	"context"
	"errors"
	"testing"

	"waferscale/internal/geom"
)

// TestRunCtxTerminalProgressOnHalt: a run that quiesces far inside a
// progress stride must still end with a Progress call reporting the
// final cycle — short runs used to emit no progress at all, and long
// ones left the stream stale by up to runProgressStride-1 cycles.
func TestRunCtxTerminalProgressOnHalt(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, "li r1, 3\nhalt")); err != nil {
		t.Fatal(err)
	}
	var ticks []int64
	m.Progress = func(c int64) { ticks = append(ticks, c) }
	if err := m.RunCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("no Progress call on a halting run")
	}
	if got := ticks[len(ticks)-1]; got != m.Cycle() {
		t.Errorf("last Progress tick = %d, machine halted at %d", got, m.Cycle())
	}
}

// TestRunCtxTerminalProgressOnBudget: budget expiry must also close the
// stream with the terminal cycle, for budgets both below and above one
// stride.
func TestRunCtxTerminalProgressOnBudget(t *testing.T) {
	for _, budget := range []int64{100, int64(runProgressStride) + 512} {
		m := newMachine(t, smallConfig(), nil)
		// A spin loop that never halts.
		if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, "spin: jal r0, spin")); err != nil {
			t.Fatal(err)
		}
		var last int64 = -1
		m.Progress = func(c int64) { last = c }
		err := m.RunCtx(context.Background(), budget)
		var be *BudgetError
		if !errors.As(err, &be) || be.Cycles != budget {
			t.Fatalf("budget %d: err = %v, want BudgetError", budget, err)
		}
		if last != m.Cycle() {
			t.Errorf("budget %d: last Progress tick = %d, machine paused at %d", budget, last, m.Cycle())
		}
	}
}

// TestRunCtxTerminalProgressOnCancel: a cancelled run's final Progress
// value is the cycle the machine paused at.
func TestRunCtxTerminalProgressOnCancel(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, "spin: jal r0, spin")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var last int64 = -1
	m.Progress = func(c int64) {
		last = c
		cancel() // cancel at the first stride check
	}
	err := m.RunCtx(ctx, 10*int64(runProgressStride))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last != m.Cycle() {
		t.Errorf("last Progress tick = %d, machine paused at %d", last, m.Cycle())
	}
}
