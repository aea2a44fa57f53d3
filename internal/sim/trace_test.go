package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"waferscale/internal/geom"
)

func TestTraceCapturesInstructions(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	var buf bytes.Buffer
	m.SetTrace(&buf, TraceCore(geom.C(0, 0), 0))
	prog := mustAssemble(t, `
		li  r1, 5
		li  r2, 7
		add r3, r1, r2
		halt
	`)
	if err := m.LoadProgram(geom.C(0, 0), 0, prog); err != nil {
		t.Fatal(err)
	}
	// A second, untraced core runs too.
	if err := m.LoadProgram(geom.C(1, 1), 2, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 4 {
		t.Errorf("traced %d lines, want 4:\n%s", lines, out)
	}
	for _, want := range []string{"li r1, 5", "add r3, r1, r2", "halt", "tile=(0,0) core=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tile=(1,1)") {
		t.Error("filter leaked another core into the trace")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, "halt")); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 10); err != nil {
		t.Fatal(err) // must not crash with no writer
	}
}

func TestTraceNilFilterMatchesAll(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	var buf bytes.Buffer
	m.SetTrace(&buf, nil)
	prog := mustAssemble(t, "halt")
	if err := m.LoadProgram(geom.C(0, 0), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(geom.C(2, 3), 1, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tile=(0,0)") || !strings.Contains(out, "tile=(2,3)") {
		t.Errorf("nil filter should trace every core:\n%s", out)
	}
}
