// Package clock models waferscale clock generation and distribution
// (paper Section IV). A passive clock tree spanning >15,000 mm^2 is
// infeasible (parasitics >450 pF / >120 nH limit it to sub-MHz, and the
// PLL needs the stable supply only edge tiles enjoy), so the prototype
// generates a fast clock (up to 350 MHz) in one or more edge tiles and
// *forwards* it tile-to-tile through selection circuitry in every
// compute chiplet:
//
//   - On boot every tile runs from the software-controlled JTAG clock.
//   - During clock setup, selected edge tiles multiply the slow master
//     clock with their PLL and start forwarding.
//   - Every non-edge tile watches its four forwarded-clock inputs and
//     selects the first to reach a preset toggle count (default 16),
//     then forwards the selected clock onward — so the clock floods the
//     array like a breadth-first wave and no live-lock can occur.
//   - Each hop forwards an inverted copy so duty-cycle distortion
//     alternates sign instead of accruing, and a duty-cycle-correction
//     (DCC) unit trims the residual.
//
// The package provides an event-driven simulation of that process, the
// equivalent graph analysis, and the duty-cycle distortion model; the
// resiliency results of the paper's Fig. 4 fall out of either view.
package clock

import (
	"fmt"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Source identifies which clock input a tile's selector has chosen.
type Source int

// The selectable clock sources (paper Fig. 3).
const (
	SourceJTAG   Source = iota // software-controlled test clock (boot default)
	SourceMaster               // slow master clock from the off-wafer crystal
	SourceNorth                // forwarded clock from the north neighbor
	SourceEast
	SourceSouth
	SourceWest
	SourceNone // no clock reaches the tile
)

// String returns the source name.
func (s Source) String() string {
	switch s {
	case SourceJTAG:
		return "jtag"
	case SourceMaster:
		return "master"
	case SourceNorth:
		return "north"
	case SourceEast:
		return "east"
	case SourceSouth:
		return "south"
	case SourceWest:
		return "west"
	case SourceNone:
		return "none"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// FromDir converts a mesh direction to the corresponding forwarded
// clock source.
func FromDir(d geom.Dir) Source {
	switch d {
	case geom.North:
		return SourceNorth
	case geom.East:
		return SourceEast
	case geom.South:
		return SourceSouth
	case geom.West:
		return SourceWest
	}
	return SourceNone
}

// Plan is the result of the clock setup phase: which source every tile
// selected, the hop distance from a generator, and whether the tile
// receives a usable clock at all.
type Plan struct {
	Grid       geom.Grid
	Generators []geom.Coord // edge tiles configured to generate
	Source     []Source     // per tile (row-major)
	Hops       []int        // forwarding hops from the nearest generator; -1 if unreached
	Inverted   []bool       // whether the received clock is an inverted copy
}

// SourceAt returns the selected source for a tile.
func (p *Plan) SourceAt(c geom.Coord) Source { return p.Source[p.Grid.Index(c)] }

// HopsAt returns the forwarding distance for a tile (-1 if unreached).
func (p *Plan) HopsAt(c geom.Coord) int { return p.Hops[p.Grid.Index(c)] }

// Clocked reports whether the tile receives the forwarded fast clock.
func (p *Plan) Clocked(c geom.Coord) bool {
	s := p.SourceAt(c)
	return s == SourceMaster || (s >= SourceNorth && s <= SourceWest)
}

// UnreachedTiles returns healthy tiles that never received a clock.
func (p *Plan) UnreachedTiles(fm *fault.Map) []geom.Coord {
	var out []geom.Coord
	p.Grid.All(func(c geom.Coord) {
		if fm.Healthy(c) && !p.Clocked(c) {
			out = append(out, c)
		}
	})
	return out
}

// MaxHops returns the deepest forwarding distance in the plan.
func (p *Plan) MaxHops() int {
	max := 0
	for _, h := range p.Hops {
		if h > max {
			max = h
		}
	}
	return max
}

// String draws the plan: 'G' generator, digits for hop distance mod 10,
// 'X' faulty (needs the fault map), '!' healthy-but-unclocked.
func (p *Plan) Render(fm *fault.Map) string {
	out := make([]byte, 0, (p.Grid.W+1)*p.Grid.H)
	for y := p.Grid.H - 1; y >= 0; y-- {
		for x := 0; x < p.Grid.W; x++ {
			c := geom.C(x, y)
			switch {
			case fm.Faulty(c):
				out = append(out, 'X')
			case p.HopsAt(c) == 0 && p.SourceAt(c) == SourceMaster:
				out = append(out, 'G')
			case p.Clocked(c):
				out = append(out, byte('0'+p.HopsAt(c)%10))
			default:
				out = append(out, '!')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
