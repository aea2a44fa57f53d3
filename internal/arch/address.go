package arch

import (
	"fmt"

	"waferscale/internal/geom"
)

// The system is architected as a unified memory system: any core on any
// tile can directly address the globally shared memory across the whole
// wafer (paper Section II). The map below mirrors that organization on a
// 32-bit address space:
//
//	0x0000_0000 .. PrivateMemPerCore   core-private SRAM (per core)
//	0x4000_0000 .. +local bank size    tile-local bank (cores + routers
//	                                   of the same tile only)
//	0x8000_0000 .. +512 MiB            globally shared memory, one
//	                                   512 KiB window per tile, tiles in
//	                                   row-major order
//
// Accesses to the global window of a remote tile are carried by the
// waferscale mesh network; accesses to the local tile's window go
// through the intra-tile crossbar directly.
const (
	// LocalBankBase is the base address of the tile-local memory bank.
	LocalBankBase uint32 = 0x4000_0000
	// GlobalBase is the base address of the global shared-memory space.
	GlobalBase uint32 = 0x8000_0000
)

// Region identifies which part of the address map an address falls in.
type Region int

// The address-map regions.
const (
	RegionPrivate Region = iota
	RegionLocalBank
	RegionGlobal
	RegionUnmapped
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case RegionPrivate:
		return "private"
	case RegionLocalBank:
		return "local-bank"
	case RegionGlobal:
		return "global"
	case RegionUnmapped:
		return "unmapped"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// AddressMap resolves 32-bit addresses against a configuration. The
// region bounds are precomputed at construction: Region runs on every
// simulated memory instruction, and deriving them through the
// value-receiver Config methods would copy the whole Config each time.
type AddressMap struct {
	cfg  Config
	grid geom.Grid

	privateLimit uint32 // first address above core-private SRAM
	localLimit   uint32 // first address above the tile-local bank
	window       uint32 // per-tile global window bytes
	globalLimit  uint64 // first address above the global region
}

// NewAddressMap builds the resolver for a validated configuration.
func NewAddressMap(cfg Config) *AddressMap {
	window := uint32(cfg.SharedMemPerTile())
	return &AddressMap{
		cfg:          cfg,
		grid:         cfg.Grid(),
		privateLimit: uint32(cfg.PrivateMemPerCore),
		localLimit:   LocalBankBase + uint32(cfg.LocalBankBytesPerTile()),
		window:       window,
		globalLimit:  uint64(GlobalBase) + uint64(cfg.Tiles())*uint64(window),
	}
}

// GlobalWindowBytes returns the per-tile global window size.
func (m *AddressMap) GlobalWindowBytes() uint32 { return m.window }

// Region classifies an address.
func (m *AddressMap) Region(addr uint32) Region {
	switch {
	case addr < m.privateLimit:
		return RegionPrivate
	case addr >= LocalBankBase && addr < m.localLimit:
		return RegionLocalBank
	case addr >= GlobalBase && uint64(addr) < m.globalLimit:
		return RegionGlobal
	default:
		return RegionUnmapped
	}
}

// GlobalTarget decomposes a global address into the owning tile, the
// bank within that tile's memory chiplet, and the byte offset within
// the bank. It returns an error for addresses outside the global region.
func (m *AddressMap) GlobalTarget(addr uint32) (tile geom.Coord, bank int, offset uint32, err error) {
	if m.Region(addr) != RegionGlobal {
		return geom.Coord{}, 0, 0, fmt.Errorf("arch: address %#x not in global region", addr)
	}
	rel := addr - GlobalBase
	win := m.GlobalWindowBytes()
	tileIdx := int(rel / win)
	inWin := rel % win
	bank = int(inWin / uint32(m.cfg.BankBytes))
	offset = inWin % uint32(m.cfg.BankBytes)
	return m.grid.Coord(tileIdx), bank, offset, nil
}

// TileOf returns the tile owning a global address, or an error.
func (m *AddressMap) TileOf(addr uint32) (geom.Coord, error) {
	tile, _, _, err := m.GlobalTarget(addr)
	return tile, err
}
