package jtag

import "fmt"

// Scannable is anything a controller can clock: a single DAP, a tile
// chain, or a progressively-unrolled wafer chain.
type Scannable interface {
	// Tick applies one TCK with the given TMS/TDI and returns TDO.
	Tick(tms, tdi bool) bool
}

// TileChain is the intra-tile daisy chain of the 14 core DAPs (paper
// Fig. 9). In normal mode TDI enters DAP 0 and TDO leaves DAP 13. In
// broadcast mode — used when all cores run the same program, which the
// paper found to be the common case for irregular workloads — TDItile
// drives every DAP's TDI in parallel and TDOtile comes from the first
// core, so the external controller sees a single DAP and bit-shift
// latency drops 14x.
type TileChain struct {
	DAPs      []*DAP
	Broadcast bool
}

// NewTileChain builds a tile's chain with the given core count; DAP i
// gets IDCODE base+i.
func NewTileChain(cores int, base uint32) *TileChain {
	t := &TileChain{DAPs: make([]*DAP, cores)}
	for i := range t.DAPs {
		t.DAPs[i] = NewDAP(base + uint32(i))
	}
	return t
}

// Tick clocks every DAP once and returns the tile's TDO.
func (t *TileChain) Tick(tms, tdi bool) bool {
	if t.Broadcast {
		var out bool
		for i, d := range t.DAPs {
			o := d.Tick(tms, tdi)
			if i == 0 {
				out = o
			}
		}
		return out
	}
	sig := tdi
	for _, d := range t.DAPs {
		sig = d.Tick(tms, sig)
	}
	return sig
}

// EffectiveDAPs returns how many DAPs the external controller sees.
func (t *TileChain) EffectiveDAPs() int {
	if t.Broadcast {
		return 1
	}
	return len(t.DAPs)
}

// MarkFaulty makes the whole tile look dead to the tester (stuck TDO).
func (t *TileChain) MarkFaulty() {
	for _, d := range t.DAPs {
		d.Faulty = true
	}
}

// Controller drives TMS/TDI waveforms into a scannable chain and keeps
// a TCK cycle count — the timing hook for the Section VII load-time
// analysis. It assumes all devices' TAP controllers stay in lockstep
// (they share TMS, so they do).
type Controller struct {
	target Scannable
	state  TAPState
	Cycles int64
}

// NewController wraps a chain; call Reset before the first operation.
func NewController(target Scannable) *Controller {
	return &Controller{target: target, state: TestLogicReset}
}

func (c *Controller) clock(tms, tdi bool) bool {
	c.Cycles++
	out := c.target.Tick(tms, tdi)
	c.state = c.state.Next(tms)
	return out
}

// Reset forces Test-Logic-Reset (five TMS=1 clocks) and parks in
// Run-Test/Idle.
func (c *Controller) Reset() {
	for i := 0; i < 5; i++ {
		c.clock(true, false)
	}
	c.clock(false, false)
}

// ShiftIR scans the given bits (LSB first) through the concatenated
// instruction registers and returns the bits shifted out.
func (c *Controller) ShiftIR(bits []bool) ([]bool, error) {
	if c.state != RunTestIdle {
		return nil, fmt.Errorf("jtag: ShiftIR from %v; Reset first", c.state)
	}
	c.clock(true, false)  // Select-DR-Scan
	c.clock(true, false)  // Select-IR-Scan
	c.clock(false, false) // Capture-IR
	c.clock(false, false) // enter Shift-IR
	out := c.shiftBits(bits)
	c.clock(true, false)  // Update-IR
	c.clock(false, false) // Run-Test/Idle
	return out, nil
}

// ShiftDR scans the given bits (LSB first) through the concatenated
// data registers and returns the bits shifted out.
func (c *Controller) ShiftDR(bits []bool) ([]bool, error) {
	if c.state != RunTestIdle {
		return nil, fmt.Errorf("jtag: ShiftDR from %v; Reset first", c.state)
	}
	c.clock(true, false)  // Select-DR-Scan
	c.clock(false, false) // Capture-DR
	c.clock(false, false) // enter Shift-DR
	out := c.shiftBits(bits)
	c.clock(true, false)  // Update-DR
	c.clock(false, false) // Run-Test/Idle
	return out, nil
}

// shiftBits shifts all bits; the final bit goes out with TMS=1 so the
// controller lands in Exit1.
func (c *Controller) shiftBits(bits []bool) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		last := i == len(bits)-1
		out[i] = c.clock(last, b)
	}
	return out
}

// Uint32ToBits converts a word to n LSB-first bits.
func Uint32ToBits(v uint64, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = v>>uint(i)&1 != 0
	}
	return bits
}

// BitsToUint returns the LSB-first bits as an integer.
func BitsToUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// dpaccWrite builds the 35-bit DPACC write payload: bit0 RnW=0, bits
// 1-2 select (00 address, 01 data), bits 3..34 the word.
func dpaccWrite(sel uint32, word uint32) uint64 {
	return uint64(sel)<<1 | uint64(word)<<3
}

// WriteWords writes a sequence of words through a single DAP's DPACC
// at increasing word addresses starting at addr: one address scan, then
// one data scan per word (the AP auto-increments).
func (c *Controller) WriteWords(addr uint32, words []uint32) error {
	if _, err := c.ShiftIR(Uint32ToBits(InstrDPACC, irBits)); err != nil {
		return err
	}
	if _, err := c.ShiftDR(Uint32ToBits(dpaccWrite(0b00, addr), DPACCBits)); err != nil {
		return err
	}
	for _, w := range words {
		if _, err := c.ShiftDR(Uint32ToBits(dpaccWrite(0b01, w), DPACCBits)); err != nil {
			return err
		}
	}
	return nil
}

// ReadIDCODEs scans out n 32-bit IDCODEs from a chain of n effective
// DAPs (IDCODE is selected after reset). The first value returned is
// the device nearest TDO.
func (c *Controller) ReadIDCODEs(n int) ([]uint32, error) {
	if _, err := c.ShiftIR(repeatInstr(InstrIDCODE, n)); err != nil {
		return nil, err
	}
	out, err := c.ShiftDR(make([]bool, 32*n))
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		ids[i] = uint32(BitsToUint(out[32*i : 32*(i+1)]))
	}
	return ids, nil
}

// repeatInstr concatenates the same 4-bit instruction for n devices.
func repeatInstr(instr uint32, n int) []bool {
	bits := make([]bool, 0, irBits*n)
	for i := 0; i < n; i++ {
		bits = append(bits, Uint32ToBits(uint64(instr), irBits)...)
	}
	return bits
}
