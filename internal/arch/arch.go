// Package arch defines the architectural parameters of the waferscale
// processor system described in the DAC 2021 paper "Designing a
// 2048-Chiplet, 14336-Core Waferscale Processor": the compute and memory
// chiplets, the two-chiplet tile, the 32x32 tile array, and the global
// unified-memory address map.
//
// Everything the paper's Table I reports is *derived* here from first
// principles (core counts, frequencies, bank widths, link widths) rather
// than hard-coded, so that the design-space-exploration sweeps in
// internal/core can vary the inputs and regenerate consistent specs.
package arch

import (
	"errors"
	"fmt"

	"waferscale/internal/geom"
)

// Physical and protocol constants of the Si-IF integration technology
// used by the prototype (paper Sections I, II and V).
const (
	// InterChipletGapUM is the inter-chiplet spacing on the wafer.
	InterChipletGapUM = 100.0
	// LinkWidthBits is the parallel inter-chiplet network link width
	// escaping each side of a tile (paper Section VI).
	LinkWidthBits = 400
	// PacketWidthBits is the width of an entire network packet.
	PacketWidthBits = 100
	// BusesPerTileSide is the number of parallel wide buses the link is
	// divided into: X-Y ingress/egress and Y-X ingress/egress.
	BusesPerTileSide = 4
	// PayloadBitsPerBus is the data payload carried per bus per cycle
	// (the remainder of the 100-bit packet is header/flow control).
	PayloadBitsPerBus = 64
)

// ChipletKind discriminates the two chiplet types in a tile.
type ChipletKind int

// The two chiplet kinds.
const (
	ComputeChiplet ChipletKind = iota
	MemoryChiplet
)

// String returns the chiplet kind name.
func (k ChipletKind) String() string {
	switch k {
	case ComputeChiplet:
		return "compute"
	case MemoryChiplet:
		return "memory"
	}
	return fmt.Sprintf("ChipletKind(%d)", int(k))
}

// ChipletSpec describes one chiplet type.
type ChipletSpec struct {
	Kind      ChipletKind
	WidthMM   float64 // die width in mm
	HeightMM  float64 // die height in mm
	NumIOs    int     // fine-pitch signal I/O pads
	ProbePads int     // larger duplicate pads for pre-bond probing
}

// AreaMM2 returns the die area in square millimeters.
func (c ChipletSpec) AreaMM2() float64 { return c.WidthMM * c.HeightMM }

// Config is the full set of architectural knobs. The zero value is not
// usable; construct with DefaultConfig or fill every field and Validate.
type Config struct {
	// Array geometry.
	TilesX, TilesY int // tile array dimensions (paper: 32x32)

	// Per-tile composition.
	CoresPerTile       int // independently programmable cores (paper: 14)
	PrivateMemPerCore  int // bytes of private SRAM per core (paper: 64 KiB)
	SharedBanksPerTile int // banks on the memory chiplet (paper: 5)
	GlobalBanksPerTile int // of those, globally addressable (paper: 4)
	BankBytes          int // bytes per bank (paper: 128 KiB)
	BankWidthBytes     int // bank access width in bytes (32-bit ports)

	// Chiplet physicals.
	Compute ChipletSpec
	Memory  ChipletSpec

	// Electrical operating point.
	FreqHz          float64 // nominal core/network frequency (paper: 300 MHz)
	MaxFreqHz       float64 // PLL ceiling (paper: 400 MHz)
	NominalVolts    float64 // regulated logic supply (paper: 1.1 V)
	FastCornerVolts float64 // fast-fast corner supply (paper: 1.21 V)
	EdgeSupplyVolts float64 // supply at the wafer edge (paper: 2.5 V)
	PeakTilePowerW  float64 // peak power per tile at FF corner (paper: 0.35 W)

	// Wafer-level floorplan.
	TotalAreaMM2 float64 // total area incl. edge I/O ring (paper: 15100 mm^2)

	// Substrate / network link parameters (defaults from the consts above).
	LinkWidthBits     int
	PacketWidthBits   int
	BusesPerTileSide  int
	PayloadBitsPerBus int

	// Test infrastructure.
	JTAGChains int     // row-parallel JTAG chains (paper: 32)
	TCLKHz     float64 // max test clock (paper: 10 MHz)
}

// DefaultConfig returns the prototype configuration from the paper.
func DefaultConfig() Config {
	return Config{
		TilesX:             32,
		TilesY:             32,
		CoresPerTile:       14,
		PrivateMemPerCore:  64 << 10,
		SharedBanksPerTile: 5,
		GlobalBanksPerTile: 4,
		BankBytes:          128 << 10,
		BankWidthBytes:     4,
		Compute: ChipletSpec{
			Kind:      ComputeChiplet,
			WidthMM:   3.15,
			HeightMM:  2.4,
			NumIOs:    2020,
			ProbePads: 40,
		},
		Memory: ChipletSpec{
			Kind:      MemoryChiplet,
			WidthMM:   3.15,
			HeightMM:  1.1,
			NumIOs:    1250,
			ProbePads: 24,
		},
		FreqHz:            300e6,
		MaxFreqHz:         400e6,
		NominalVolts:      1.1,
		FastCornerVolts:   1.21,
		EdgeSupplyVolts:   2.5,
		PeakTilePowerW:    0.350,
		TotalAreaMM2:      15100,
		LinkWidthBits:     LinkWidthBits,
		PacketWidthBits:   PacketWidthBits,
		BusesPerTileSide:  BusesPerTileSide,
		PayloadBitsPerBus: PayloadBitsPerBus,
		JTAGChains:        32,
		TCLKHz:            10e6,
	}
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(c.TilesX > 0 && c.TilesY > 0, "tile array %dx%d must be positive", c.TilesX, c.TilesY)
	check(c.CoresPerTile > 0, "cores per tile %d must be positive", c.CoresPerTile)
	check(c.PrivateMemPerCore > 0, "private memory per core must be positive")
	check(c.SharedBanksPerTile >= c.GlobalBanksPerTile,
		"global banks (%d) cannot exceed total banks (%d)", c.GlobalBanksPerTile, c.SharedBanksPerTile)
	check(c.GlobalBanksPerTile > 0, "need at least one globally addressable bank")
	check(c.BankBytes > 0 && c.BankWidthBytes > 0, "bank geometry must be positive")
	check(c.Compute.NumIOs > 0 && c.Memory.NumIOs > 0, "chiplets must have I/Os")
	check(c.FreqHz > 0 && c.FreqHz <= c.MaxFreqHz,
		"frequency %.0f Hz must be positive and <= PLL max %.0f Hz", c.FreqHz, c.MaxFreqHz)
	check(c.NominalVolts > 0 && c.NominalVolts < c.EdgeSupplyVolts,
		"nominal voltage %.2f must be below edge supply %.2f", c.NominalVolts, c.EdgeSupplyVolts)
	check(c.FastCornerVolts >= c.NominalVolts, "FF-corner voltage below nominal")
	check(c.PeakTilePowerW > 0, "peak tile power must be positive")
	check(c.LinkWidthBits >= c.BusesPerTileSide*c.PacketWidthBits,
		"link width %d cannot carry %d buses of %d-bit packets",
		c.LinkWidthBits, c.BusesPerTileSide, c.PacketWidthBits)
	check(c.PayloadBitsPerBus > 0 && c.PayloadBitsPerBus <= c.PacketWidthBits,
		"payload bits %d must fit in the %d-bit packet", c.PayloadBitsPerBus, c.PacketWidthBits)
	check(c.JTAGChains > 0 && c.TilesY%c.JTAGChains == 0,
		"JTAG chains (%d) must evenly divide the tile rows (%d)", c.JTAGChains, c.TilesY)
	check(c.TCLKHz > 0, "TCLK must be positive")
	return errors.Join(errs...)
}

// Square returns the configuration cut to a side×side tile array with
// one JTAG chain per row, every per-tile parameter kept, and validated.
func (c Config) Square(side int) (Config, error) {
	c.TilesX, c.TilesY, c.JTAGChains = side, side, side
	return c, c.Validate()
}

// Grid returns the tile-array grid descriptor.
func (c Config) Grid() geom.Grid { return geom.NewGrid(c.TilesX, c.TilesY) }

// Tiles returns the total tile count.
func (c Config) Tiles() int { return c.TilesX * c.TilesY }

// Chiplets returns the total chiplet count (two per tile).
func (c Config) Chiplets() int { return 2 * c.Tiles() }

// TotalCores returns the system core count.
func (c Config) TotalCores() int { return c.Tiles() * c.CoresPerTile }

// SharedMemPerTile returns bytes of globally shared memory per tile.
func (c Config) SharedMemPerTile() int { return c.GlobalBanksPerTile * c.BankBytes }

// LocalBankBytesPerTile returns bytes in tile-local (non-global) banks.
func (c Config) LocalBankBytesPerTile() int {
	return (c.SharedBanksPerTile - c.GlobalBanksPerTile) * c.BankBytes
}

// TotalSharedMem returns bytes of globally shared memory in the system.
func (c Config) TotalSharedMem() int64 {
	return int64(c.Tiles()) * int64(c.SharedMemPerTile())
}

// ComputeThroughputOPS returns peak ops/sec assuming one op per core
// per cycle (the paper's 4.3 TOPS figure).
func (c Config) ComputeThroughputOPS() float64 {
	return float64(c.TotalCores()) * c.FreqHz
}

// SharedMemBandwidth returns aggregate bank bandwidth in bytes/sec: all
// banks on every memory chiplet accessed in parallel at full rate (the
// paper's 6.144 TB/s figure counts all five banks per tile).
func (c Config) SharedMemBandwidth() float64 {
	return float64(c.Tiles()) * float64(c.SharedBanksPerTile) *
		float64(c.BankWidthBytes) * c.FreqHz
}

// NetworkBandwidth returns the aggregate network injection bandwidth in
// bytes/sec: every tile can inject the data payload of each of its buses
// every cycle (the paper's 9.83 TB/s figure).
func (c Config) NetworkBandwidth() float64 {
	return float64(c.Tiles()) * float64(c.BusesPerTileSide) *
		float64(c.PayloadBitsPerBus) / 8 * c.FreqHz
}

// PeakWaferCurrentA returns the total supply current at peak draw: each
// tile's LDO passes its load current, which at the FF corner is
// PeakTilePowerW / FastCornerVolts (the paper's ~290 A figure).
func (c Config) PeakWaferCurrentA() float64 {
	return float64(c.Tiles()) * c.PeakTilePowerW / c.FastCornerVolts
}

// PeakWaferPowerW returns the power drawn from the edge connectors at
// peak: edge voltage times total current (the paper's 725 W figure —
// it exceeds the sum of tile powers because the PDN and LDOs burn the
// voltage headroom resistively).
func (c Config) PeakWaferPowerW() float64 {
	return c.PeakWaferCurrentA() * c.EdgeSupplyVolts
}

// TotalInterChipIOs returns the number of fine-pitch inter-chip I/Os on
// all chiplets.
func (c Config) TotalInterChipIOs() int {
	return c.Tiles() * (c.Compute.NumIOs + c.Memory.NumIOs)
}

// TileWidthMM and TileHeightMM give the tile footprint including the
// inter-chiplet gap; the memory chiplet sits above the compute chiplet.
func (c Config) TileWidthMM() float64 {
	w := c.Compute.WidthMM
	if c.Memory.WidthMM > w {
		w = c.Memory.WidthMM
	}
	return w + InterChipletGapUM/1000
}

// TileHeightMM returns the tile pitch in the Y dimension.
func (c Config) TileHeightMM() float64 {
	return c.Compute.HeightMM + c.Memory.HeightMM + 2*InterChipletGapUM/1000
}

// ArrayAreaMM2 returns the area of the populated tile array (without
// the edge fan-out ring).
func (c Config) ArrayAreaMM2() float64 {
	return float64(c.Tiles()) * c.TileWidthMM() * c.TileHeightMM()
}
