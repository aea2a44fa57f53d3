package clock

import (
	"fmt"

	"waferscale/internal/geom"
)

// Selector is a cycle-level model of the clock selection and forwarding
// circuitry inside one compute chiplet (paper Fig. 3). It has six clock
// inputs — master (slow) clock, software-controlled JTAG clock and four
// forwarded clocks — plus one forwarded output. On boot it selects the
// JTAG clock; put into auto-selection mode it counts toggles on the
// four forwarded inputs and locks onto the first to reach the
// configured toggle count.
type Selector struct {
	ToggleCount int // lock threshold (default 16)

	mode     SelectorMode
	selected Source
	counts   [4]int  // toggle counters, indexed by geom.Dir order N,E,S,W
	last     [4]bool // previous sample; inputs idle low before clocks arrive
	locked   bool
}

// SelectorMode is the operating mode of the selection FSM.
type SelectorMode int

// Selector modes (paper Section IV: boot-up, clock setup, execution).
const (
	// ModeBoot: JTAG clock drives the tile (testing and program/data
	// loading phases).
	ModeBoot SelectorMode = iota
	// ModeGenerate: the tile multiplies the master clock with its PLL
	// and forwards the result (edge tiles only).
	ModeGenerate
	// ModeAuto: the tile waits for a forwarded clock on any side and
	// locks onto the first to reach ToggleCount toggles.
	ModeAuto
)

// String returns the mode name.
func (m SelectorMode) String() string {
	switch m {
	case ModeBoot:
		return "boot"
	case ModeGenerate:
		return "generate"
	case ModeAuto:
		return "auto"
	}
	return fmt.Sprintf("SelectorMode(%d)", int(m))
}

// NewSelector returns a selector in boot mode with the paper's default
// toggle count of 16.
func NewSelector() *Selector {
	return &Selector{ToggleCount: 16, mode: ModeBoot, selected: SourceJTAG}
}

// Selected returns the currently selected source.
func (s *Selector) Selected() Source { return s.selected }

// Locked reports whether auto-selection has completed.
func (s *Selector) Locked() bool { return s.locked }

// SetMode switches the FSM mode (driven over JTAG during the setup
// phase). Entering ModeAuto resets the counters and the lock.
func (s *Selector) SetMode(m SelectorMode) {
	s.mode = m
	switch m {
	case ModeBoot:
		s.selected = SourceJTAG
		s.locked = false
	case ModeGenerate:
		s.selected = SourceMaster
		s.locked = true
	case ModeAuto:
		s.selected = SourceNone
		s.locked = false
		s.counts = [4]int{}
		s.last = [4]bool{}
	}
}

// Step advances one sampling cycle with the given levels on the four
// forwarded inputs (N,E,S,W). A toggle is a level change between
// consecutive samples. It returns the selected source after the cycle.
// Once locked, further input activity is ignored, which is what
// terminates the clock setup phase for the tile (paper Section IV).
func (s *Selector) Step(inputs [4]bool) Source {
	if s.mode != ModeAuto || s.locked {
		return s.selected
	}
	for i, level := range inputs {
		if level != s.last[i] {
			s.counts[i]++
			s.last[i] = level
		}
	}
	// First input past the threshold wins; ties resolve in port order
	// (N,E,S,W), matching the priority encoder in the mux control.
	for i, n := range s.counts {
		if n >= s.ToggleCount {
			s.selected = FromDir(geom.Dir(i))
			s.locked = true
			break
		}
	}
	return s.selected
}
