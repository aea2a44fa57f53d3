package noc

import "waferscale/internal/geom"

// LinkSpec describes the physical inter-tile link budget (paper
// Section VI): given the tile edge length, the Si-IF escape density
// supports a 400-bit parallel link per tile side, divided into four
// 100-bit buses — X-Y ingress, X-Y egress, Y-X ingress, Y-X egress.
type LinkSpec struct {
	EdgeLengthMM float64 // tile edge the link escapes through
	WiresPerMM   float64 // substrate escape density (paper: 400/mm)
	PacketBits   int     // full packet width (paper: 100)
	PayloadBits  int     // data payload per packet (64)
	Buses        int     // buses per tile side (4)
	ClockHz      float64 // link clock (tile clock, 300 MHz)
}

// DefaultLinkSpec returns the prototype's link budget for a tile edge.
func DefaultLinkSpec(edgeMM float64) LinkSpec {
	return LinkSpec{
		EdgeLengthMM: edgeMM,
		WiresPerMM:   400,
		PacketBits:   100,
		PayloadBits:  64,
		Buses:        4,
		ClockHz:      300e6,
	}
}

// BusBandwidthBps returns the payload bandwidth of one bus.
func (l LinkSpec) BusBandwidthBps() float64 {
	return float64(l.PayloadBits) / 8 * l.ClockHz
}

// TileInjectionBps returns a tile's aggregate injection bandwidth (all
// buses; the paper's 9.83 TB/s figure is this times 1024 tiles).
func (l LinkSpec) TileInjectionBps() float64 {
	return float64(l.Buses) * l.BusBandwidthBps()
}

// SystemBandwidth summarizes the network bandwidth of a full array.
type SystemBandwidth struct {
	AggregateBps float64 // sum of tile injection bandwidth
	BisectionBps float64 // payload across the narrower mid cut, both networks
}

// ComputeBandwidth derives the system's bandwidth figures for an array.
func ComputeBandwidth(grid geom.Grid, l LinkSpec) SystemBandwidth {
	cut := grid.W
	if grid.H < cut {
		cut = grid.H
	}
	// Bisection: each tile row crossing the cut carries one bus per
	// direction per network (2 networks x 2 directions).
	return SystemBandwidth{
		AggregateBps: float64(grid.Size()) * l.TileInjectionBps(),
		BisectionBps: float64(cut) * 4 * l.BusBandwidthBps(),
	}
}
