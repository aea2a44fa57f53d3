package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/geom"
)

// allocatedPages counts the pages of a memory that hold host storage.
func allocatedPages(p *pagedMem) int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// memEqual compares contents: a missing page equals an all-zero page.
func memEqual(a, b *pagedMem) bool {
	if a.size != b.size {
		return false
	}
	var zero [pageBytes]byte
	for i := range a.pages {
		pa, pb := a.pages[i], b.pages[i]
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		if *pa != *pb {
			return false
		}
	}
	return true
}

// diffMemories demands equal memory contents, machine-wide: every
// core's private SRAM, every tile's banks and every shadow window.
func diffMemories(t *testing.T, got, ref *Machine) {
	t.Helper()
	for i, rt := range ref.tiles {
		gt := got.tiles[i]
		if rt == nil || gt == nil {
			continue
		}
		if !memEqual(&gt.mem, &rt.mem) {
			t.Errorf("tile %d: bank contents diverge", i)
		}
		for ci := range rt.Cores {
			if !memEqual(&gt.Cores[ci].priv, &rt.Cores[ci].priv) {
				t.Errorf("tile %d core %d: private SRAM diverges", i, ci)
			}
		}
	}
	if len(got.shadow) != len(ref.shadow) {
		t.Fatalf("shadow windows: %d vs %d", len(got.shadow), len(ref.shadow))
	}
	for i, rs := range ref.shadow {
		if gs, ok := got.shadow[i]; !ok || !memEqual(gs, rs) {
			t.Errorf("shadow window of tile %d diverges", i)
		}
	}
}

func TestPagedMemUnwrittenReadsZero(t *testing.T) {
	p := newPagedMem(64 << 10)
	allocs := testing.AllocsPerRun(100, func() {
		for off := uint32(0); off < 64<<10; off += 1020 {
			if v := p.load32(off); v != 0 {
				t.Fatalf("unwritten word %#x reads %#x", off, v)
			}
		}
		p.apply(128, memLoad, 0)
		p.store32(256, 0) // a zero store onto an unwritten page changes nothing
	})
	if allocs != 0 {
		t.Errorf("reading unwritten memory allocated %v times per run", allocs)
	}
	if n := allocatedPages(&p); n != 0 {
		t.Errorf("%d pages allocated by reads", n)
	}
}

func TestPagedMemFirstStoreAllocatesOnePage(t *testing.T) {
	p := newPagedMem(64 << 10)
	p.store32(3*pageBytes+8, 0xCAFE)
	if n := allocatedPages(&p); n != 1 || p.pages[3] == nil {
		t.Fatalf("first store allocated %d pages, want exactly page 3", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.store32(3*pageBytes+12, 7)
		p.apply(3*pageBytes+16, memAmoAdd, 1)
	}); allocs != 0 {
		t.Errorf("stores to an allocated page allocated %v times per run", allocs)
	}
	if v := p.load32(3*pageBytes + 8); v != 0xCAFE {
		t.Errorf("readback %#x", v)
	}
}

func TestPagedMemApply(t *testing.T) {
	p := newPagedMem(pageBytes)
	steps := []struct {
		op, data, old, after uint32
	}{
		{memStore, 10, 0, 10},
		{memLoad, 99, 10, 10},
		{memAmoAdd, 5, 10, 15},
		{memAmoMin, 20, 15, 15},
		{memAmoMin, 0xFFFFFFFF, 15, 0xFFFFFFFF}, // -1 is smaller as int32
	}
	for i, s := range steps {
		if old := p.apply(40, s.op, s.data); old != s.old {
			t.Errorf("step %d: old %#x, want %#x", i, old, s.old)
		}
		if v := p.load32(40); v != s.after {
			t.Errorf("step %d: word %#x, want %#x", i, v, s.after)
		}
	}
}

// TestPagedMemStraddlingWord covers unaligned words that cross a page
// boundary (a guest jumping to an unaligned PC fetches one).
func TestPagedMemStraddlingWord(t *testing.T) {
	p := newPagedMem(2 * pageBytes)
	p.store32(pageBytes-2, 0x11223344)
	if n := allocatedPages(&p); n != 2 {
		t.Fatalf("straddling store allocated %d pages, want 2", n)
	}
	if v := p.load32(pageBytes - 2); v != 0x11223344 {
		t.Errorf("straddling readback %#x", v)
	}
	if v := p.load32(pageBytes - 4); v != 0x33440000 {
		t.Errorf("low page word %#x", v)
	}
	if v := p.load32(pageBytes); v != 0x1122 {
		t.Errorf("high page word %#x", v)
	}
}

// TestPagedMemOddSize runs a machine whose banks are not a multiple of
// the page size: every bank's first and last words stay distinct, for
// the host backdoors and for guest stores, own-tile and remote.
func TestPagedMemOddSize(t *testing.T) {
	cfg := smallConfig()
	cfg.BankBytes = 6000
	m := newMachine(t, cfg, nil)
	win := uint32(cfg.SharedMemPerTile())
	base := arch.GlobalBase + win // tile (1,0)'s window
	for b := uint32(0); b < uint32(cfg.GlobalBanksPerTile); b++ {
		for _, off := range []uint32{0, 5996} {
			if err := m.WriteGlobal32(base+b*6000+off, b<<16|off); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := uint32(0); b < uint32(cfg.GlobalBanksPerTile); b++ {
		for _, off := range []uint32{0, 5996} {
			if v, err := m.ReadGlobal32(base + b*6000 + off); err != nil || v != b<<16|off {
				t.Errorf("bank %d offset %d: %#x, %v", b, off, v, err)
			}
		}
	}
	last := base + win - 4
	own := mustAssemble(t, fmt.Sprintf(`
		la  r1, %#x
		li  r2, 4242
		sw  r2, 0(r1)
		lw  r3, 0(r1)
		la  r1, %#x
		lw  r4, 0(r1)
		halt
	`, last, base+2*6000))
	remote := mustAssemble(t, fmt.Sprintf(`
		la  r1, %#x
		li  r2, 77
		sw  r2, 0(r1)
		halt
	`, arch.GlobalBase+win-4))
	if err := m.LoadProgram(geom.C(1, 0), 0, own); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(geom.C(3, 3), 0, remote); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	if c := m.Tile(geom.C(1, 0)).Cores[0]; c.Regs[3] != 4242 || c.Regs[4] != 2<<16 {
		t.Errorf("own-tile loads: window's last word %d, bank 2's first word %#x", c.Regs[3], c.Regs[4])
	}
	if v, _ := m.ReadGlobal32(last); v != 4242 {
		t.Errorf("host reads the guest's own-tile store as %d", v)
	}
	if v, _ := m.ReadGlobal32(arch.GlobalBase + win - 4); v != 77 {
		t.Errorf("remote store to tile 0's last word reads %d", v)
	}
	if v, _ := m.ReadGlobal32(base + (uint32(cfg.GlobalBanksPerTile)-1)*6000); v != (uint32(cfg.GlobalBanksPerTile)-1)<<16 {
		t.Errorf("last bank's first word clobbered: %#x", v)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewMachineFootprint pins demand paging: building the full
// default-config 32x32 wafer allocates none of its 1.5 GiB of simulated
// SRAM.
func TestNewMachineFootprint(t *testing.T) {
	cfg := arch.DefaultConfig()
	got := allocatedBytes(func() { newMachine(t, cfg, nil) })
	if got >= 64<<20 {
		t.Errorf("32x32 NewMachine allocated %.1f MiB, want < 64 MiB", float64(got)/(1<<20))
	}
	t.Logf("32x32 NewMachine allocated %.1f MiB", float64(got)/(1<<20))
}
