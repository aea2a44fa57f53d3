package jtag

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTAPStateGraph(t *testing.T) {
	// Five TMS=1 from anywhere reaches Test-Logic-Reset.
	for s := TestLogicReset; s <= UpdateIR; s++ {
		cur := s
		for i := 0; i < 5; i++ {
			cur = cur.Next(true)
		}
		if cur != TestLogicReset {
			t.Errorf("state %v: 5x TMS=1 lands in %v", s, cur)
		}
	}
	// The canonical DR scan walk.
	walk := []struct {
		tms  bool
		want TAPState
	}{
		{false, RunTestIdle},
		{true, SelectDRScan},
		{false, CaptureDR},
		{false, ShiftDR},
		{false, ShiftDR},
		{true, Exit1DR},
		{false, PauseDR},
		{true, Exit2DR},
		{false, ShiftDR},
		{true, Exit1DR},
		{true, UpdateDR},
		{false, RunTestIdle},
	}
	cur := TestLogicReset
	for i, step := range walk {
		cur = cur.Next(step.tms)
		if cur != step.want {
			t.Fatalf("walk step %d: got %v, want %v", i, cur, step.want)
		}
	}
}

func TestTAPStateNames(t *testing.T) {
	if ShiftDR.String() != "Shift-DR" || TestLogicReset.String() != "Test-Logic-Reset" {
		t.Error("state names wrong")
	}
	if !strings.Contains(TAPState(99).String(), "99") {
		t.Error("unknown state should show value")
	}
}

func TestDAPIDCODERead(t *testing.T) {
	d := NewDAP(0x4BA00477)
	ctl := NewController(d)
	ctl.Reset()
	ids, err := ctl.ReadIDCODEs(1)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0x4BA00477 {
		t.Errorf("IDCODE = %#x, want 0x4BA00477", ids[0])
	}
}

func TestDAPMemoryWrite(t *testing.T) {
	d := NewDAP(1)
	ctl := NewController(d)
	ctl.Reset()
	words := []uint32{0xdeadbeef, 0x12345678, 0xcafef00d}
	if err := ctl.WriteWords(0x100, words); err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if got := d.MemWord(0x100 + uint32(4*i)); got != w {
			t.Errorf("mem[%#x] = %#x, want %#x (auto-increment)", 0x100+4*i, got, w)
		}
	}
	if len(d.memory) != 3 {
		t.Errorf("words written = %d, want 3", len(d.memory))
	}
}

func TestFaultyDAPSticksLow(t *testing.T) {
	d := NewDAP(0xFFFFFFFF)
	d.Faulty = true
	ctl := NewController(d)
	ctl.Reset()
	ids, err := ctl.ReadIDCODEs(1)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0 {
		t.Errorf("faulty DAP returned %#x, want stuck 0", ids[0])
	}
	// And it must not commit memory writes.
	if err := ctl.WriteWords(0, []uint32{42}); err != nil {
		t.Fatal(err)
	}
	if len(d.memory) != 0 {
		t.Error("faulty DAP committed a write")
	}
}

func TestControllerRequiresIdle(t *testing.T) {
	d := NewDAP(1)
	ctl := NewController(d) // state Test-Logic-Reset, not idle
	if _, err := ctl.ShiftDR(make([]bool, 8)); err == nil {
		t.Error("ShiftDR from reset state accepted")
	}
	if _, err := ctl.ShiftIR(make([]bool, 4)); err == nil {
		t.Error("ShiftIR from reset state accepted")
	}
}

func TestBitConversionRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return uint32(BitsToUint(Uint32ToBits(uint64(v), 32))) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBypassChain: devices in BYPASS contribute exactly one register
// bit each, so a known pattern emerges delayed by the device count.
func TestBypassChain(t *testing.T) {
	tile := NewTileChain(4, 100)
	ctl := NewController(tile)
	ctl.Reset()
	if _, err := ctl.ShiftIR(repeatInstr(InstrBYPASS, 4)); err != nil {
		t.Fatal(err)
	}
	pattern := []bool{true, false, true, true, false, false, true, false}
	out, err := ctl.ShiftDR(append(pattern, make([]bool, 4)...))
	if err != nil {
		t.Fatal(err)
	}
	// After 4 bypass stages, the pattern appears shifted by 4.
	for i, want := range pattern {
		if out[i+4] != want {
			t.Fatalf("bypass output bit %d = %v, want %v (out=%v)", i+4, out[i+4], want, out)
		}
	}
}

func TestTileChainIDCODEs(t *testing.T) {
	tile := NewTileChain(14, 0x4BA00477)
	ctl := NewController(tile)
	ctl.Reset()
	ids, err := ctl.ReadIDCODEs(14)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest-TDO device (last DAP) comes out first.
	for i, id := range ids {
		want := uint32(0x4BA00477 + 13 - i)
		if id != want {
			t.Errorf("id[%d] = %#x, want %#x", i, id, want)
		}
	}
}

// TestBroadcastModeFig9: in broadcast mode the controller sees one DAP
// and the same program lands in every core's memory.
func TestBroadcastModeFig9(t *testing.T) {
	tile := NewTileChain(14, 0x4BA00477)
	tile.Broadcast = true
	if tile.EffectiveDAPs() != 1 {
		t.Fatalf("broadcast chain shows %d DAPs", tile.EffectiveDAPs())
	}
	ctl := NewController(tile)
	ctl.Reset()
	ids, err := ctl.ReadIDCODEs(1)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0x4BA00477 {
		t.Errorf("broadcast TDO should come from the first core, got %#x", ids[0])
	}
	program := []uint32{0xE3A00001, 0xE2800001, 0xEAFFFFFD}
	if err := ctl.WriteWords(0, program); err != nil {
		t.Fatal(err)
	}
	for i, d := range tile.DAPs {
		for j, w := range program {
			if got := d.MemWord(uint32(4 * j)); got != w {
				t.Fatalf("core %d word %d = %#x, want %#x", i, j, got, w)
			}
		}
	}
}

// TestBroadcastLatency14x measures actual controller cycles: loading
// the same program with and without broadcast mode differs by ~14x.
func TestBroadcastLatency14x(t *testing.T) {
	program := make([]uint32, 64)
	for i := range program {
		program[i] = uint32(i) * 0x01010101
	}

	// Broadcast: one pass.
	bt := NewTileChain(14, 1)
	bt.Broadcast = true
	bc := NewController(bt)
	bc.Reset()
	if err := bc.WriteWords(0, program); err != nil {
		t.Fatal(err)
	}
	broadcastCycles := bc.Cycles

	// Without broadcast the controller sees all 14 DAPs in the scan
	// chain, so every DPACC scan is 14x35 bits — each DAP receives its
	// own copy of the word in its slice of the long scan.
	nt := NewTileChain(14, 1)
	nc := NewController(nt)
	nc.Reset()
	if _, err := nc.ShiftIR(repeatInstr(InstrDPACC, 14)); err != nil {
		t.Fatal(err)
	}
	addr := Uint32ToBits(dpaccWrite(0b00, 0), DPACCBits)
	var addrAll []bool
	for i := 0; i < 14; i++ {
		addrAll = append(addrAll, addr...)
	}
	if _, err := nc.ShiftDR(addrAll); err != nil {
		t.Fatal(err)
	}
	for _, w := range program {
		data := Uint32ToBits(dpaccWrite(0b01, w), DPACCBits)
		var all []bool
		for i := 0; i < 14; i++ {
			all = append(all, data...)
		}
		if _, err := nc.ShiftDR(all); err != nil {
			t.Fatal(err)
		}
	}
	serialCycles := nc.Cycles
	// Both approaches must leave the same program in every core.
	for i, d := range nt.DAPs {
		for j, w := range program {
			if got := d.MemWord(uint32(4 * j)); got != w {
				t.Fatalf("non-broadcast core %d word %d = %#x, want %#x", i, j, got, w)
			}
		}
	}

	ratio := float64(serialCycles) / float64(broadcastCycles)
	if ratio < 12 || ratio > 16 {
		t.Errorf("broadcast speedup = %.1fx (serial %d / broadcast %d), want ~14x",
			ratio, serialCycles, broadcastCycles)
	}
}

func TestWaferChainPowerUpLoopback(t *testing.T) {
	w := NewWaferChain(8, 14)
	if w.ActiveTiles() != 1 {
		t.Errorf("power-up active tiles = %d, want 1 (all loop back)", w.ActiveTiles())
	}
	if w.EffectiveDAPs() != 14 {
		t.Errorf("effective DAPs = %d, want 14", w.EffectiveDAPs())
	}
	w.SetMode(0, Forward)
	if w.ActiveTiles() != 2 || w.EffectiveDAPs() != 28 {
		t.Errorf("after unroll: tiles=%d daps=%d", w.ActiveTiles(), w.EffectiveDAPs())
	}
	if Loopback.String() != "loopback" || Forward.String() != "forward" {
		t.Error("mode names wrong")
	}
}

// TestFig10ProgressiveUnrollClean: a healthy chain unrolls completely.
func TestFig10ProgressiveUnrollClean(t *testing.T) {
	w := NewWaferChain(8, 4)
	res, err := ProgressiveUnroll(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultyTile != -1 {
		t.Errorf("clean chain reported faulty tile %d", res.FaultyTile)
	}
	if res.TestedTiles != 8 {
		t.Errorf("tested %d tiles, want 8", res.TestedTiles)
	}
	if res.TotalTCK <= 0 || len(res.ScansPerTile) != 8 {
		t.Errorf("timing not recorded: %+v", res)
	}
}

// TestFig10ProgressiveUnrollLocalizesFault: the unrolling stops at and
// identifies exactly the faulty chiplet.
func TestFig10ProgressiveUnrollLocalizesFault(t *testing.T) {
	for faultAt := 0; faultAt < 6; faultAt++ {
		w := NewWaferChain(6, 3)
		w.Tiles[faultAt].MarkFaulty()
		res, err := ProgressiveUnroll(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultyTile != faultAt {
			t.Errorf("fault at %d localized as %d", faultAt, res.FaultyTile)
		}
		if res.TestedTiles != faultAt {
			t.Errorf("tested %d good tiles before fault at %d", res.TestedTiles, faultAt)
		}
	}
}

// TestUnrollCostGrowsWithDepth: each unroll step scans a longer chain,
// so cumulative TCK grows superlinearly — the scalability reason for
// splitting into 32 row chains.
func TestUnrollCostGrowsWithDepth(t *testing.T) {
	w := NewWaferChain(10, 2)
	res, err := ProgressiveUnroll(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ScansPerTile); i++ {
		stepPrev := res.ScansPerTile[i-1]
		if i >= 2 {
			stepPrev -= res.ScansPerTile[i-2]
		}
		step := res.ScansPerTile[i] - res.ScansPerTile[i-1]
		if step <= stepPrev {
			t.Fatalf("scan cost not increasing at tile %d: %d <= %d", i, step, stepPrev)
		}
	}
}

// TestSec7LoadTimeHeadline reproduces the paper's numbers: loading all
// memory over a single 1024-tile chain takes ~2.5 hours; with 32
// independent row chains it drops ~32x to roughly five minutes.
func TestSec7LoadTimeHeadline(t *testing.T) {
	rep, err := Sec7Headline(1024, 32, 1536<<10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleChain < 2*time.Hour || rep.SingleChain > 3*time.Hour {
		t.Errorf("single-chain load = %v, want ~2.5 h", rep.SingleChain)
	}
	if rep.MultiChain > 6*time.Minute {
		t.Errorf("32-chain load = %v, want ~5 min", rep.MultiChain)
	}
	if rep.Speedup < 30 || rep.Speedup > 32.5 {
		t.Errorf("chain speedup = %.1fx, want ~32x", rep.Speedup)
	}
	if rep.BroadcastSpeedup != 14 {
		t.Errorf("broadcast speedup = %.1fx, want 14x", rep.BroadcastSpeedup)
	}
}

func TestLoadModelValidation(t *testing.T) {
	m := DefaultLoadModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.TCLKHz = 0
	if bad.Validate() == nil {
		t.Error("zero TCLK accepted")
	}
	if _, err := m.LoadTime(1024, 7, 1000, false); err == nil {
		t.Error("non-dividing chain count accepted")
	}
	if _, err := m.LoadTime(0, 1, 1000, false); err == nil {
		t.Error("zero tiles accepted")
	}
}

// TestLoadTimeBroadcastBenefit: broadcast mode shortens scans (no
// bypass bits) and so shortens program load.
func TestLoadTimeBroadcastBenefit(t *testing.T) {
	m := DefaultLoadModel()
	plain, err := m.LoadTime(1024, 32, 16384, false)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := m.LoadTime(1024, 32, 16384, true)
	if err != nil {
		t.Fatal(err)
	}
	if bcast >= plain {
		t.Errorf("broadcast load %v not faster than %v", bcast, plain)
	}
}

// TestLoadTimeScalesWithChains: doubling chains roughly halves time.
func TestLoadTimeScalesWithChains(t *testing.T) {
	m := DefaultLoadModel()
	prev := time.Duration(1<<62 - 1)
	for _, chains := range []int{1, 2, 4, 8, 16, 32} {
		d, err := m.LoadTime(1024, chains, 1000, false)
		if err != nil {
			t.Fatal(err)
		}
		if d >= prev {
			t.Errorf("chains=%d: %v not faster than %v", chains, d, prev)
		}
		prev = d
	}
}

// TestChainTCKLinearInWords: property — TCK scales linearly with the
// payload.
func TestChainTCKLinearInWords(t *testing.T) {
	m := DefaultLoadModel()
	f := func(w uint16) bool {
		words := int(w)%10000 + 1
		a := m.ChainTCK(32, words, false)
		b := m.ChainTCK(32, 2*words, false)
		return b == 2*a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
