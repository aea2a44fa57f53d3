package sim

import (
	"strings"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func TestNewMachineValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewMachine(cfg, nil); err == nil || !strings.Contains(err.Error(), "nil fault map") {
		t.Errorf("nil fault map: err = %v", err)
	}
	if _, err := NewMachine(cfg, fault.NewMap(geom.NewGrid(3, 3))); err == nil || !strings.Contains(err.Error(), "grid") {
		t.Errorf("grid mismatch: err = %v", err)
	}
	bad := cfg
	bad.CoresPerTile = 0
	if _, err := NewMachine(bad, fault.NewMap(cfg.Grid())); err == nil {
		t.Error("invalid config should be rejected")
	}
}

// broadcast loads the same program into every core of every healthy
// tile — the common case the paper's JTAG broadcast mode optimizes.
func broadcast(m *Machine, words []uint32) error {
	for _, t := range m.tiles {
		if t == nil {
			continue
		}
		for i := range t.Cores {
			if err := m.LoadProgram(t.Coord, i, words); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestBroadcastOnFaultyMachine(t *testing.T) {
	cfg := smallConfig()
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(1, 1))
	fm.MarkFaulty(geom.C(2, 3))
	fm.MarkFaulty(geom.C(0, 2))
	m := newMachine(t, cfg, fm)

	prog := mustAssemble(t, `
	    li   r2, 7
	    halt
	`)
	if err := broadcast(m, prog); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if faults := m.Faults(); len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ran := 0
	cfg.Grid().All(func(c geom.Coord) {
		tl := m.Tile(c)
		if fm.Faulty(c) {
			if tl != nil {
				t.Errorf("faulty tile %v exists", c)
			}
			return
		}
		for _, core := range tl.Cores {
			if core.Instret > 0 {
				ran++
			}
			if core.Regs[2] != 7 {
				t.Errorf("tile %v core %d did not run the broadcast program", c, core.idx)
			}
		}
	})
	if want := (16 - 3) * cfg.CoresPerTile; ran != want {
		t.Errorf("ran = %d cores, want %d", ran, want)
	}
}

func TestFaultsOnFaultyMachine(t *testing.T) {
	cfg := smallConfig()
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(3, 0))
	m := newMachine(t, cfg, fm)

	// Every core trips an unaligned access and must fault, each with a
	// located, structured error.
	prog := mustAssemble(t, `
	    li   r1, 1
	    lw   r2, 0(r1)
	    halt
	`)
	if err := broadcast(m, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000); err != nil {
		t.Fatalf("faulted cores count as halted: %v", err)
	}
	faults := m.Faults()
	if want := (16 - 1) * cfg.CoresPerTile; len(faults) != want {
		t.Fatalf("len(Faults) = %d, want %d", len(faults), want)
	}
	for _, err := range faults {
		if !strings.Contains(err.Error(), "unaligned") || !strings.Contains(err.Error(), "tile") {
			t.Fatalf("fault lacks context: %v", err)
		}
	}
}
