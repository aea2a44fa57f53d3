// Package jtag models the waferscale test infrastructure (paper
// Section VII): the IEEE 1149.1 test access ports (TAPs) of the ARM
// debug-access ports, the intra-tile daisy chain of 14 DAPs with its
// broadcast mode (Fig. 9), the progressive multi-chiplet chain
// unrolling that localizes faulty chiplets after assembly (Fig. 10),
// the 32-row multi-chain organization, and the program/data load-time
// model behind the paper's "2.5 hours down to under 5 minutes" claim.
package jtag

import "fmt"

// TAPState is one of the 16 states of the IEEE 1149.1 TAP controller.
type TAPState int

// The TAP controller states.
const (
	TestLogicReset TAPState = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var tapStateNames = [...]string{
	"Test-Logic-Reset", "Run-Test/Idle",
	"Select-DR-Scan", "Capture-DR", "Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR", "Exit2-IR", "Update-IR",
}

// String returns the standard state name.
func (s TAPState) String() string {
	if int(s) < len(tapStateNames) {
		return tapStateNames[s]
	}
	return fmt.Sprintf("TAPState(%d)", int(s))
}

// Next returns the state after one TCK rising edge with the given TMS
// level — the IEEE 1149.1 state graph.
func (s TAPState) Next(tms bool) TAPState {
	if tms {
		switch s {
		case TestLogicReset:
			return TestLogicReset
		case RunTestIdle, UpdateDR, UpdateIR:
			return SelectDRScan
		case SelectDRScan:
			return SelectIRScan
		case CaptureDR, ShiftDR:
			return Exit1DR
		case Exit1DR, Exit2DR:
			return UpdateDR
		case PauseDR:
			return Exit2DR
		case SelectIRScan:
			return TestLogicReset
		case CaptureIR, ShiftIR:
			return Exit1IR
		case Exit1IR, Exit2IR:
			return UpdateIR
		case PauseIR:
			return Exit2IR
		}
	} else {
		switch s {
		case TestLogicReset, RunTestIdle, UpdateDR, UpdateIR:
			return RunTestIdle
		case SelectDRScan:
			return CaptureDR
		case CaptureDR, ShiftDR:
			return ShiftDR
		case Exit1DR, PauseDR:
			return PauseDR
		case Exit2DR:
			return ShiftDR
		case SelectIRScan:
			return CaptureIR
		case CaptureIR, ShiftIR:
			return ShiftIR
		case Exit1IR, PauseIR:
			return PauseIR
		case Exit2IR:
			return ShiftIR
		}
	}
	return TestLogicReset
}

// Instruction registers of the modelled DAP TAP.
const (
	irBits = 4

	// InstrIDCODE selects the 32-bit identification register.
	InstrIDCODE = 0b1110
	// InstrBYPASS selects the 1-bit bypass register (all-ones IR, per
	// the standard).
	InstrBYPASS = 0b1111
	// InstrDPACC selects the 35-bit debug-port access register used for
	// memory reads/writes through the DAP.
	InstrDPACC = 0b1010
)

// DPACCBits is the DR length of the debug-port access register (3
// control bits + 32 data bits, as in the ARM DAP).
const DPACCBits = 35

// DAP is one core's debug access port: a TAP controller with IDCODE,
// BYPASS and a DPACC register that fronts the core's memory.
type DAP struct {
	IDCode uint32
	// Faulty makes the TAP drive a stuck-at-0 TDO regardless of state —
	// how a dead or unbonded chiplet appears to the tester.
	Faulty bool

	state    TAPState
	ir       uint32 // current instruction
	irShift  uint32
	drShift  uint64            // shared shift register for the selected DR
	memory   map[uint32]uint32 // word-addressed memory behind DPACC
	stuck    map[uint32]stuckBit
	lastAddr uint32
}

// NewDAP returns a reset DAP with the given IDCODE.
func NewDAP(id uint32) *DAP {
	return &DAP{
		IDCode: id,
		state:  TestLogicReset,
		ir:     InstrIDCODE, // reset loads IDCODE per the standard
		memory: make(map[uint32]uint32),
	}
}

// MemWord returns a word written through DPACC.
func (d *DAP) MemWord(addr uint32) uint32 { return d.memory[addr] }

// Tick advances the TAP one TCK with the given TMS and TDI levels and
// returns TDO. While the controller sits in a Shift state, each tick
// presents the register LSB on TDO and shifts TDI in — including the
// final tick that exits to Exit1 (IEEE 1149.1 semantics). The tick that
// *enters* the Shift state does not shift.
func (d *DAP) Tick(tms, tdi bool) (tdo bool) {
	switch d.state {
	case ShiftIR:
		tdo = d.irShift&1 != 0
		in := uint32(0)
		if tdi {
			in = 1
		}
		d.irShift = (d.irShift >> 1) | in<<(irBits-1)
	case ShiftDR:
		tdo = d.drBit()
		d.shiftDR(tdi)
	}
	if d.Faulty {
		tdo = false
	}

	next := d.state.Next(tms)
	switch next {
	case TestLogicReset:
		d.ir = InstrIDCODE
	case CaptureIR:
		d.irShift = 0b0101 // capture pattern (xx01 per the standard)
	case UpdateIR:
		d.ir = d.irShift & (1<<irBits - 1)
	case CaptureDR:
		d.captureDR()
	case UpdateDR:
		d.updateDR()
	}
	d.state = next
	return tdo
}

// drLen returns the selected DR's length.
func (d *DAP) drLen() int {
	switch d.ir {
	case InstrIDCODE:
		return 32
	case InstrDPACC:
		return DPACCBits
	default: // BYPASS and unknown instructions select the 1-bit bypass
		return 1
	}
}

func (d *DAP) drBit() bool { return d.drShift&1 != 0 }

func (d *DAP) captureDR() {
	switch d.ir {
	case InstrIDCODE:
		d.drShift = uint64(d.IDCode)
	case InstrDPACC:
		// Capture returns the word at the current address (read-back),
		// perturbed by any injected stuck-at faults.
		d.drShift = uint64(d.applyStuck(d.lastAddr, d.memory[d.lastAddr])) << 3
	default:
		d.drShift = 0
	}
}

func (d *DAP) shiftDR(tdi bool) {
	n := d.drLen()
	in := uint64(0)
	if tdi {
		in = 1
	}
	d.drShift = (d.drShift >> 1) | in<<(n-1)
	d.drShift &= 1<<n - 1
}

func (d *DAP) updateDR() {
	if d.ir != InstrDPACC || d.Faulty {
		return
	}
	// DPACC layout (simplified ADIv5): bit0 RnW (0 = write), bits1-2
	// register select (00 = address, 01 = data), bits 3..34 payload.
	rnw := d.drShift&1 != 0
	sel := (d.drShift >> 1) & 0b11
	payload := uint32(d.drShift >> 3)
	if rnw {
		return
	}
	switch sel {
	case 0b00:
		d.lastAddr = payload
	case 0b01:
		d.memory[d.lastAddr] = payload
		d.lastAddr += 4 // auto-increment, as the real AP does
	}
}
