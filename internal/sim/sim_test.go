package sim

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// smallConfig returns a 4x4-tile, 4-core machine configuration — big
// enough to exercise remote traffic, small enough for fast tests.
func smallConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY = 4, 4
	cfg.CoresPerTile = 4
	cfg.JTAGChains = 4
	return cfg
}

func newMachine(t *testing.T, cfg arch.Config, fm *fault.Map) *Machine {
	t.Helper()
	if fm == nil {
		fm = fault.NewMap(cfg.Grid())
	}
	m, err := NewMachine(cfg, fm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustAssemble(t *testing.T, src string) []uint32 {
	t.Helper()
	words, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return words
}

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int16) bool {
		in := Instr{
			Op:  Op(op) % opCount,
			Rd:  int(rd) % 16,
			Rs1: int(rs1) % 16,
			Rs2: int(rs2) % 16,
		}
		if in.Op == OpLI || in.Op == OpLUI || in.Op == OpOrLo {
			in.Imm = int32(imm)
			out := Decode(in.Encode())
			return out.Op == in.Op && out.Rd == in.Rd && out.Imm == in.Imm
		}
		in.Imm = int32(imm) % 2048
		out := Decode(in.Encode())
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpLI, Rd: 3, Imm: -7}, "li r3, -7"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpLw, Rd: 4, Rs1: 5, Imm: 8}, "lw r4, 8(r5)"},
		{Instr{Op: OpSw, Rs2: 4, Rs1: 5, Imm: 8}, "sw r4, 8(r5)"},
		{Instr{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: -3}, "beq r1, r2, -3"},
		{Instr{Op: OpAmoAdd, Rd: 1, Rs2: 2, Rs1: 3}, "amoadd r1, r2, (r3)"},
		{Instr{Op: OpCoreID, Rd: 9}, "coreid r9"},
		{Instr{Op: OpJr, Rs1: 7}, "jr r7"},
		{Instr{Op: OpJal, Rd: 1, Imm: 5}, "jal r1, 5"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if Op(200).String() != "op200" {
		t.Error("unknown op string")
	}
}

func TestAssembleBasics(t *testing.T) {
	words := mustAssemble(t, `
		; simple arithmetic
		li   r1, 10
		li   r2, 32
		add  r3, r1, r2
		halt
	`)
	if len(words) != 4 {
		t.Fatalf("words = %d", len(words))
	}
	if in := Decode(words[2]); in.Op != OpAdd || in.Rd != 3 {
		t.Errorf("instr 2 = %v", in)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	words := mustAssemble(t, `
		li r1, 0
		li r2, 5
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`)
	in := Decode(words[3])
	if in.Op != OpBlt || in.Imm != -2 {
		t.Errorf("branch = %v, want blt imm -2", in)
	}
}

func TestAssembleLA(t *testing.T) {
	words := mustAssemble(t, "la r1, 0x8000F004\nhalt")
	if len(words) != 3 {
		t.Fatalf("la should expand to 2 instructions, got %d total", len(words))
	}
	if in := Decode(words[0]); in.Op != OpLUI {
		t.Errorf("first = %v", in)
	}
	if in := Decode(words[1]); in.Op != OpOrLo {
		t.Errorf("second = %v", in)
	}
	// la of a small value needs no orlo when low half is zero.
	words = mustAssemble(t, "la r1, 0x10000\nhalt")
	if len(words) != 2 {
		t.Errorf("la 0x10000 should be one lui, got %d words", len(words)-1)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"li r99, 1",
		"li r1",
		"li r1, 999999",
		"addi r1, r2, 9999",
		"lw r1, 8",
		"beq r1, r2, nowhere",
		"dup: nop\ndup: nop",
		"lw r1, 99999(r2)",
		"la r1",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestMachineArithmetic(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		li  r1, 6
		li  r2, 7
		mul r3, r1, r2
		sub r4, r3, r1    ; 36
		xor r5, r3, r3    ; 0
		halt
	`)
	tile := geom.C(0, 0)
	if err := m.LoadProgram(tile, 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(tile).Cores[0]
	if c.Regs[3] != 42 || c.Regs[4] != 36 || c.Regs[5] != 0 {
		t.Errorf("regs = %v", c.Regs[:6])
	}
	if c.Instret != 6 {
		t.Errorf("instret = %d", c.Instret)
	}
}

func TestR0HardwiredZero(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		li  r0, 99
		add r1, r0, r0
		halt
	`)
	if err := m.LoadProgram(geom.C(0, 0), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(0, 0)).Cores[0]
	if c.Regs[0] != 0 || c.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay zero", c.Regs[0], c.Regs[1])
	}
}

func TestPrivateMemory(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		la  r1, 0x8000     ; private scratch
		li  r2, 1234
		sw  r2, 0(r1)
		lw  r3, 4(r1)      ; zero
		lw  r4, 0(r1)      ; 1234
		halt
	`)
	if err := m.LoadProgram(geom.C(1, 1), 2, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(1, 1)).Cores[2]
	if c.Regs[4] != 1234 || c.Regs[3] != 0 {
		t.Errorf("regs = %v", c.Regs[:5])
	}
}

func TestLocalBank(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		la  r1, 0x40000000 ; tile-local bank
		li  r2, 777
		sw  r2, 64(r1)
		lw  r3, 64(r1)
		halt
	`)
	if err := m.LoadProgram(geom.C(2, 2), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if c := m.Tile(geom.C(2, 2)).Cores[0]; c.Regs[3] != 777 {
		t.Errorf("local bank readback = %d", c.Regs[3])
	}
}

func TestOwnTileGlobalAccess(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	// Tile (1,0) is tile index 1; its global window starts at
	// GlobalBase + 1*512KiB.
	addr := arch.GlobalBase + uint32(cfg.SharedMemPerTile())
	prog := mustAssemble(t, `
		la  r1, 0x80080000 ; tile 1's window (512 KiB = 0x80000)
		li  r2, 555
		sw  r2, 0(r1)
		lw  r3, 0(r1)
		halt
	`)
	if err := m.LoadProgram(geom.C(1, 0), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if c := m.Tile(geom.C(1, 0)).Cores[0]; c.Regs[3] != 555 {
		t.Errorf("own-global readback = %d", c.Regs[3])
	}
	// And the host backdoor sees the same word.
	v, err := m.ReadGlobal32(addr)
	if err != nil || v != 555 {
		t.Errorf("host read = %d, %v", v, err)
	}
}

func TestRemoteGlobalAccess(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	// Core on tile (3,3) writes into tile (0,0)'s window and reads back.
	prog := mustAssemble(t, `
		la  r1, 0x80000000
		li  r2, 9999
		sw  r2, 128(r1)
		lw  r3, 128(r1)
		halt
	`)
	if err := m.LoadProgram(geom.C(3, 3), 1, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(3, 3)).Cores[1]
	if c.Regs[3] != 9999 {
		t.Errorf("remote readback = %d", c.Regs[3])
	}
	if m.RemoteRequests != 2 {
		t.Errorf("remote requests = %d, want 2", m.RemoteRequests)
	}
	if m.AvgRemoteLatency() <= 0 {
		t.Error("remote latency not recorded")
	}
	// Host sees the store.
	if v, _ := m.ReadGlobal32(arch.GlobalBase + 128); v != 9999 {
		t.Errorf("host sees %d", v)
	}
}

// TestRemoteLatencyGrowsWithDistance: the unified memory is NUMA — a
// farther tile costs more cycles per access.
func TestRemoteLatencyGrowsWithDistance(t *testing.T) {
	cfg := smallConfig()
	measure := func(from geom.Coord) float64 {
		m := newMachine(t, cfg, nil)
		prog := mustAssemble(t, `
			la  r1, 0x80000000
			lw  r2, 0(r1)
			lw  r3, 4(r1)
			lw  r4, 8(r1)
			halt
		`)
		if err := m.LoadProgram(from, 0, prog); err != nil {
			t.Fatal(err)
		}
		if err := m.RunCtx(context.Background(), 5000); err != nil {
			t.Fatal(err)
		}
		return m.AvgRemoteLatency()
	}
	near := measure(geom.C(1, 0))
	far := measure(geom.C(3, 3))
	if far <= near {
		t.Errorf("far latency %.1f <= near latency %.1f", far, near)
	}
}

func TestCoreIDAndNCores(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	prog := mustAssemble(t, "coreid r1\nncores r2\nhalt")
	if err := m.LoadProgram(geom.C(1, 0), 3, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(1, 0)).Cores[3]
	// Tile (1,0) is index 1; 1*4 + 3 = 7.
	if c.Regs[1] != 7 {
		t.Errorf("coreid = %d, want 7", c.Regs[1])
	}
	if c.Regs[2] != uint32(cfg.TotalCores()) {
		t.Errorf("ncores = %d", c.Regs[2])
	}
}

func TestFaultsTrapped(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unaligned", "la r1, 0x40000002\nlw r2, 0(r1)\nhalt", "unaligned"},
		{"unmapped", "la r1, 0x20000000\nlw r2, 0(r1)\nhalt", "unmapped"},
		{"runaway pc", "jr r1", ""}, // jr to 0 loops; use bad target
	}
	for _, tc := range cases[:2] {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, smallConfig(), nil)
			if err := m.LoadProgram(geom.C(0, 0), 0, mustAssemble(t, tc.src)); err != nil {
				t.Fatal(err)
			}
			if err := m.RunCtx(context.Background(), 1000); err != nil {
				t.Fatal(err)
			}
			faults := m.Faults()
			if len(faults) != 1 || !strings.Contains(faults[0].Error(), tc.want) {
				t.Errorf("faults = %v, want %q", faults, tc.want)
			}
		})
	}
}

func TestIllegalOpcodeFaults(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(0, 0), 0, []uint32{0xFF000000}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if len(m.Faults()) != 1 {
		t.Error("illegal opcode not trapped")
	}
}

// TestAmoAtomicAcrossCores: every core of a tile atomically increments
// a shared counter many times; the total must be exact.
func TestAmoAtomicAcrossCores(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	prog := mustAssemble(t, `
		la  r1, 0x80000040  ; counter in tile 0's window
		li  r2, 1
		li  r3, 0
		li  r4, 100
	loop:
		amoadd r5, r2, (r1)
		addi r3, r3, 1
		blt r3, r4, loop
		halt
	`)
	// All 4 cores of two different tiles — mixes own-tile and remote
	// atomics.
	for _, tile := range []geom.Coord{geom.C(0, 0), geom.C(2, 1)} {
		for core := 0; core < 4; core++ {
			if err := m.LoadProgram(tile, core, prog); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.RunCtx(context.Background(), 400000); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadGlobal32(arch.GlobalBase + 0x40)
	if err != nil {
		t.Fatal(err)
	}
	if v != 800 {
		t.Errorf("counter = %d, want 800 (atomicity violated)", v)
	}
}

func TestAmoMin(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.WriteGlobal32(arch.GlobalBase+8, 50); err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble(t, `
		la  r1, 0x80000008
		li  r2, 30
		amomin r3, r2, (r1)  ; 30 < 50: store 30, r3 = 50
		li  r2, 40
		amomin r4, r2, (r1)  ; 40 >= 30: no store, r4 = 30
		halt
	`)
	if err := m.LoadProgram(geom.C(0, 0), 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunCtx(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(0, 0)).Cores[0]
	if c.Regs[3] != 50 || c.Regs[4] != 30 {
		t.Errorf("amomin returns = %d, %d", c.Regs[3], c.Regs[4])
	}
	if v, _ := m.ReadGlobal32(arch.GlobalBase + 8); v != 30 {
		t.Errorf("final value = %d", v)
	}
}

// TestBankConflictsCounted: two cores hammering the same bank must
// collide on the single-ported crossbar.
func TestBankConflictsCounted(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	prog := mustAssemble(t, `
		la  r1, 0x40000000
		li  r2, 0
		li  r3, 200
	loop:
		lw  r4, 0(r1)
		addi r2, r2, 1
		blt r2, r3, loop
		halt
	`)
	for core := 0; core < 4; core++ {
		if err := m.LoadProgram(geom.C(0, 0), core, prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunCtx(context.Background(), 100000); err != nil {
		t.Fatal(err)
	}
	if m.BankConflicts == 0 {
		t.Error("no bank conflicts recorded under 4-way contention")
	}
}

func TestMachineRejectsBadConfigs(t *testing.T) {
	cfg := smallConfig()
	cfg.TilesX = 0
	if _, err := NewMachine(cfg, fault.NewMap(geom.NewGrid(4, 4))); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = smallConfig()
	if _, err := NewMachine(cfg, fault.NewMap(geom.NewGrid(8, 8))); err == nil {
		t.Error("mismatched grid accepted")
	}
}

func TestLoadProgramErrors(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(9, 9), 0, []uint32{0}); err == nil {
		t.Error("off-grid tile accepted")
	}
	if err := m.LoadProgram(geom.C(0, 0), 99, []uint32{0}); err == nil {
		t.Error("bad core accepted")
	}
	huge := make([]uint32, 64<<10/4+1)
	if err := m.LoadProgram(geom.C(0, 0), 0, huge); err == nil {
		t.Error("oversize program accepted")
	}
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(1, 1))
	m = newMachine(t, smallConfig(), fm)
	if err := m.LoadProgram(geom.C(1, 1), 0, []uint32{0}); err == nil {
		t.Error("faulty tile accepted")
	}
}

func TestHostBackdoorErrors(t *testing.T) {
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(1, 0)) // tile index 1
	m := newMachine(t, smallConfig(), fm)
	badAddr := arch.GlobalBase + uint32(smallConfig().SharedMemPerTile()) // tile 1's window
	if _, err := m.ReadGlobal32(badAddr); err == nil {
		t.Error("read from faulty tile accepted")
	}
	if err := m.WriteGlobal32(badAddr, 1); err == nil {
		t.Error("write to faulty tile accepted")
	}
	if _, err := m.ReadGlobal32(0x1000); err == nil {
		t.Error("non-global read accepted")
	}
	if err := m.WritePrivate32(geom.C(0, 0), 0, 3, 1); err == nil {
		t.Error("unaligned private write accepted")
	}
	if _, err := m.applyPrivate(geom.C(0, 0), 0, 1<<20, memLoad, 0); err == nil {
		t.Error("out-of-range private read accepted")
	}
}

func TestGraphGenerators(t *testing.T) {
	g := RandomGraph(50, 150, 9, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 50 || g.M() < 50 {
		t.Errorf("graph shape: n=%d m=%d", g.N, g.M())
	}
	// Determinism.
	g2 := RandomGraph(50, 150, 9, 42)
	if g2.M() != g.M() {
		t.Error("random graph not deterministic")
	}
	grid := GridGraph(5, 4)
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	if grid.N != 20 || grid.M() != 2*(4*4+5*3) {
		t.Errorf("grid graph: n=%d m=%d", grid.N, grid.M())
	}
}

func TestReferenceSSSPOnGrid(t *testing.T) {
	g := GridGraph(4, 4)
	dist := g.ReferenceSSSP(0)
	// Distance on a grid is the Manhattan distance.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if int(dist[y*4+x]) != x+y {
				t.Errorf("dist[%d,%d] = %d, want %d", x, y, dist[y*4+x], x+y)
			}
		}
	}
}

func TestReverseCSR(t *testing.T) {
	g := RandomGraph(20, 40, 5, 7)
	rev := g.ReverseCSR()
	if rev.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", rev.M(), g.M())
	}
	// Every edge (u,v,w) appears as (v,u,w) in the reverse.
	type key struct{ u, v, w int32 }
	fwd := map[key]int{}
	for u := 0; u < g.N; u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			fwd[key{int32(u), g.ColIdx[e], g.Weight[e]}]++
		}
	}
	for v := 0; v < rev.N; v++ {
		for e := rev.RowPtr[v]; e < rev.RowPtr[v+1]; e++ {
			k := key{rev.ColIdx[e], int32(v), rev.Weight[e]}
			if fwd[k] == 0 {
				t.Fatalf("reverse edge %v has no forward counterpart", k)
			}
			fwd[k]--
		}
	}
}

// TestE1BFSOnMachine is the headline workload check: BFS run as a real
// WS-ISA program on the simulated multi-tile machine matches the host
// reference — the paper's FPGA-emulation validation, reproduced.
func TestE1BFSOnMachine(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	g := GridGraph(6, 6)
	workers := AllWorkers(m, 8)
	res, err := RunBFS(m, g, 0, workers, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Unweighted().ReferenceSSSP(0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("BFS dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
	if res.Cycles <= 0 || res.Instructions <= 0 || res.RemoteOps <= 0 {
		t.Errorf("stats not populated: %+v", res)
	}
}

// TestE1SSSPOnMachine: weighted shortest paths on a random graph.
func TestE1SSSPOnMachine(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	g := RandomGraph(40, 120, 9, 2021)
	workers := AllWorkers(m, 8)
	res, err := RunSSSP(m, g, 3, workers, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := g.ReferenceSSSP(3)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("SSSP dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

// TestE1SSSPWithFaultyTiles: the workload still runs (and is correct)
// on a wafer with faulty tiles, as long as the arrays and workers sit
// on healthy, direct-reachable tiles.
func TestE1SSSPWithFaultyTiles(t *testing.T) {
	cfg := smallConfig()
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(2, 2))
	m := newMachine(t, cfg, fm)
	g := GridGraph(5, 5)
	workers := []WorkerRef{
		{Tile: geom.C(0, 0), Core: 0},
		{Tile: geom.C(1, 0), Core: 0},
		{Tile: geom.C(0, 1), Core: 1},
		{Tile: geom.C(3, 3), Core: 2},
	}
	res, err := RunSSSP(m, g, 0, workers, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := g.ReferenceSSSP(0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

// TestMoreWorkersFasterWallClock: parallel speedup — more workers
// finish the same graph in fewer cycles.
func TestMoreWorkersFasterWallClock(t *testing.T) {
	g := GridGraph(6, 6)
	run := func(nWorkers int) int64 {
		m := newMachine(t, smallConfig(), nil)
		res, err := RunBFS(m, g, 0, AllWorkers(m, nWorkers), 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	one := run(1)
	eight := run(8)
	if eight >= one {
		t.Errorf("8 workers (%d cycles) not faster than 1 (%d cycles)", eight, one)
	}
}

func TestRunSSSPValidation(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	g := GridGraph(3, 3)
	if _, err := RunSSSP(m, g, -1, AllWorkers(m, 2), 1000); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := RunSSSP(m, g, 0, nil, 1000); err == nil {
		t.Error("no workers accepted")
	}
	bad := &Graph{N: 2, RowPtr: []int32{0}, ColIdx: nil, Weight: nil}
	if _, err := RunSSSP(m, bad, 0, AllWorkers(m, 1), 1000); err == nil {
		t.Error("malformed graph accepted")
	}
}

func TestAllWorkers(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	all := AllWorkers(m, 0)
	if len(all) != 16*4 {
		t.Errorf("workers = %d, want 64", len(all))
	}
	some := AllWorkers(m, 5)
	if len(some) != 5 {
		t.Errorf("capped workers = %d", len(some))
	}
	fm := fault.NewMap(geom.NewGrid(4, 4))
	fm.MarkFaulty(geom.C(0, 0))
	m2 := newMachine(t, smallConfig(), fm)
	if got := len(AllWorkers(m2, 0)); got != 15*4 {
		t.Errorf("workers with faulty tile = %d, want 60", got)
	}
}

// TestAssembleDisassembleRoundTrip: disassembling any encodable
// instruction and re-assembling it reproduces the same word — the
// assembler and the String forms agree.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int16) bool {
		in := Instr{
			Op:  Op(op) % opCount,
			Rd:  int(rd) % 16,
			Rs1: int(rs1) % 16,
			Rs2: int(rs2) % 16,
			Imm: int32(imm) % 2048,
		}
		// Zero the fields each operand class does not carry in its
		// textual form, so the comparison is against the canonical
		// encoding.
		switch in.Op {
		case OpNop, OpHalt:
			in = Instr{Op: in.Op}
		case OpLI, OpLUI, OpOrLo:
			in.Imm = int32(imm)
			in.Rs1, in.Rs2 = 0, 0
		case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSlt, OpSltu:
			in.Imm = 0
		case OpAddi, OpLw:
			in.Rs2 = 0
		case OpSw, OpBeq, OpBne, OpBlt, OpBge:
			in.Rd = 0
		case OpJal:
			in.Rs1, in.Rs2 = 0, 0
		case OpJr:
			in.Rd, in.Rs2, in.Imm = 0, 0, 0
		case OpCoreID, OpNCores:
			in.Rs1, in.Rs2, in.Imm = 0, 0, 0
		case OpAmoAdd, OpAmoMin:
			in.Imm = 0
		}
		words, err := Assemble(in.String())
		if err != nil {
			return false
		}
		return len(words) == 1 && words[0] == in.Encode()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAssembleNeverPanics: arbitrary garbage must produce errors, not
// panics.
func TestAssembleNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Assemble panicked on %q", src)
			}
		}()
		_, _ = Assemble(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// And some adversarial near-valid inputs.
	for _, src := range []string{
		":", "::", "a:b:", "lw r1, (r2", "li r1, 0x", "beq r1, r2,",
		"la r1, -0x80000000", "sw r1, -(r2)", "amoadd r1, r2, r3",
		"\x00\x01", "loop: beq r0, r0, loop",
	} {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("Assemble panicked on %q", src)
				}
			}()
			_, _ = Assemble(src)
		}()
	}
}

// TestMachineDeterminism: two machines running the identical workload
// produce identical cycle counts, instruction counts and results — the
// property every seeded analysis in this repository depends on.
func TestMachineDeterminism(t *testing.T) {
	run := func() (int64, int64, []int32) {
		m := newMachine(t, smallConfig(), nil)
		g := RandomGraph(40, 100, 7, 77)
		res, err := RunSSSP(m, g, 0, SpreadWorkers(m, 9), 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, res.Instructions, res.Dist
	}
	c1, i1, d1 := run()
	c2, i2, d2 := run()
	if c1 != c2 || i1 != i2 {
		t.Errorf("non-deterministic execution: cycles %d/%d instret %d/%d", c1, c2, i1, i2)
	}
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("dist[%d] differs: %d vs %d", v, d1[v], d2[v])
		}
	}
}
