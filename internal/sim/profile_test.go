package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"waferscale/internal/geom"
)

func TestProfileAfterWorkload(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	g := GridGraph(5, 5)
	if _, err := RunBFS(m, g, 0, AllWorkers(m, 6), 5_000_000); err != nil {
		t.Fatal(err)
	}
	p := m.CollectProfile()
	if p.ActiveCores != 6 {
		t.Errorf("active cores = %d, want 6", p.ActiveCores)
	}
	if p.Instructions == 0 || p.Cycles == 0 {
		t.Fatalf("profile empty: %+v", p)
	}
	if p.CPI() <= 1 {
		t.Errorf("CPI = %.2f; remote stalls must push it above 1", p.CPI())
	}
	if p.StallRemote == 0 {
		t.Error("graph workload must stall on remote memory")
	}
	if f := p.RemoteStallFrac(); f <= 0 || f >= 1 {
		t.Errorf("remote stall fraction = %.2f", f)
	}
	// Cycle accounting: instructions + stalls cannot exceed total core
	// cycles.
	budget := p.Cycles * int64(p.ActiveCores)
	if used := p.Instructions + p.StallFixed + p.StallRemote + p.RetryCycles; used > budget {
		t.Errorf("accounted cycles %d exceed budget %d", used, budget)
	}
}

func TestProfileEmptyMachine(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	p := m.CollectProfile()
	if p.ActiveCores != 0 || p.CPI() != 0 || p.RemoteStallFrac() != 0 {
		t.Errorf("idle profile = %+v", p)
	}
}

func TestWriteProfile(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		la  r1, 0x80000000
		lw  r2, 0(r1)
		lw  r3, 4(r1)
		halt
	`)
	if err := m.LoadProgram(geom.C(3, 3), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.WriteProfile(&buf, 5)
	out := buf.String()
	for _, want := range []string{"machine profile", "CPI", "remote stalls", "tile(3,3).core0"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

// TestProfileLocalVsRemote: a local-only program has zero remote
// stalls; the same loop over remote memory is dominated by them.
func TestProfileLocalVsRemote(t *testing.T) {
	run := func(addr string) Profile {
		m := newMachine(t, smallConfig(), nil)
		prog := mustAssemble(t, `
			la  r1, `+addr+`
			li  r2, 0
			li  r3, 50
		loop:
			lw  r4, 0(r1)
			addi r2, r2, 1
			blt r2, r3, loop
			halt
		`)
		if err := m.LoadProgram(geom.C(3, 3), 0, prog); err != nil {
			t.Fatal(err)
		}
		if err := m.RunCtx(context.Background(), 100000); err != nil {
			t.Fatal(err)
		}
		return m.CollectProfile()
	}
	local := run("0x8000")      // private SRAM
	remote := run("0x80000000") // tile (0,0)'s window, far away
	if local.StallRemote != 0 {
		t.Errorf("private loop has %d remote stalls", local.StallRemote)
	}
	if remote.StallRemote == 0 {
		t.Error("remote loop has no remote stalls")
	}
	if remote.CPI() < 3*local.CPI() {
		t.Errorf("remote CPI %.2f should dwarf local %.2f", remote.CPI(), local.CPI())
	}
}
