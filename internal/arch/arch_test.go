package arch

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"waferscale/internal/geom"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestTable1Derivations checks every Table I value the paper reports
// against the derivation in this package.
func TestTable1Derivations(t *testing.T) {
	c := DefaultConfig()
	approx := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %g, want %g (±%.1f%%)", name, got, want, tol*100)
		}
	}
	if c.Tiles() != 1024 {
		t.Errorf("tiles = %d, want 1024", c.Tiles())
	}
	if c.Chiplets() != 2048 {
		t.Errorf("chiplets = %d, want 2048", c.Chiplets())
	}
	if c.TotalCores() != 14336 {
		t.Errorf("cores = %d, want 14336", c.TotalCores())
	}
	if got := c.TotalSharedMem(); got != 512<<20 {
		t.Errorf("shared memory = %d, want 512 MiB", got)
	}
	if got := c.SharedMemPerTile(); got != 512<<10 {
		t.Errorf("shared per tile = %d, want 512 KiB", got)
	}
	approx("compute throughput", c.ComputeThroughputOPS(), 4.3e12, 0.01)
	approx("shared-mem bandwidth", c.SharedMemBandwidth(), 6.144e12, 0.001)
	approx("network bandwidth", c.NetworkBandwidth(), 9.83e12, 0.001)
	approx("peak wafer current", c.PeakWaferCurrentA(), 290, 0.03)
	approx("peak wafer power", c.PeakWaferPowerW(), 725, 0.03)
	if got := c.TotalInterChipIOs(); got < 3_000_000 {
		t.Errorf("total inter-chip I/Os = %d, want > 3M", got)
	}
	if c.Compute.NumIOs != 2020 || c.Memory.NumIOs != 1250 {
		t.Errorf("I/Os per chiplet = %d/%d, want 2020/1250", c.Compute.NumIOs, c.Memory.NumIOs)
	}
	approx("compute chiplet area", c.Compute.AreaMM2(), 3.15*2.4, 1e-9)
	approx("memory chiplet area", c.Memory.AreaMM2(), 3.15*1.1, 1e-9)
	// Array area should be below the total (which includes the edge
	// fan-out ring) but the same order of magnitude.
	if a := c.ArrayAreaMM2(); a > c.TotalAreaMM2 || a < 0.7*c.TotalAreaMM2 {
		t.Errorf("array area %.0f mm^2 inconsistent with total %.0f mm^2", a, c.TotalAreaMM2)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero tiles", func(c *Config) { c.TilesX = 0 }, "tile array"},
		{"no cores", func(c *Config) { c.CoresPerTile = 0 }, "cores per tile"},
		{"banks", func(c *Config) { c.GlobalBanksPerTile = 9 }, "global banks"},
		{"no global banks", func(c *Config) { c.GlobalBanksPerTile = 0 }, "at least one"},
		{"freq above PLL", func(c *Config) { c.FreqHz = 500e6 }, "PLL max"},
		{"volts", func(c *Config) { c.NominalVolts = 3.0 }, "below edge supply"},
		{"FF corner", func(c *Config) { c.FastCornerVolts = 1.0 }, "FF-corner"},
		{"link width", func(c *Config) { c.LinkWidthBits = 100 }, "link width"},
		{"payload", func(c *Config) { c.PayloadBitsPerBus = 128 }, "payload bits"},
		{"chains", func(c *Config) { c.JTAGChains = 7 }, "JTAG chains"},
		{"tclk", func(c *Config) { c.TCLKHz = 0 }, "TCLK"},
		{"tile power", func(c *Config) { c.PeakTilePowerW = 0 }, "peak tile power"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateJoinsMultipleErrors(t *testing.T) {
	c := DefaultConfig()
	c.TilesX = 0
	c.CoresPerTile = 0
	err := c.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "tile array") || !strings.Contains(msg, "cores per tile") {
		t.Errorf("joined error missing parts: %q", msg)
	}
}

func TestChipletKindString(t *testing.T) {
	if ComputeChiplet.String() != "compute" || MemoryChiplet.String() != "memory" {
		t.Error("chiplet kind strings wrong")
	}
	if !strings.Contains(ChipletKind(7).String(), "7") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestAddressMapRegions(t *testing.T) {
	m := NewAddressMap(DefaultConfig())
	cases := []struct {
		addr uint32
		want Region
	}{
		{0x0000_0000, RegionPrivate},
		{0x0000_FFFF, RegionPrivate},
		{0x0001_0000, RegionUnmapped},
		{LocalBankBase, RegionLocalBank},
		{LocalBankBase + 128<<10 - 1, RegionLocalBank},
		{LocalBankBase + 128<<10, RegionUnmapped},
		{GlobalBase, RegionGlobal},
		{GlobalBase + 512<<20 - 1, RegionGlobal},
		{GlobalBase + 512<<20, RegionUnmapped},
	}
	for _, c := range cases {
		if got := m.Region(c.addr); got != c.want {
			t.Errorf("Region(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestGlobalAddressRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	m := NewAddressMap(cfg)
	f := func(tx, ty uint8, bank uint8, off uint32) bool {
		tile := geom.C(int(tx)%cfg.TilesX, int(ty)%cfg.TilesY)
		b := int(bank) % cfg.GlobalBanksPerTile
		o := off % uint32(cfg.BankBytes)
		addr := GlobalBase + uint32(m.grid.Index(tile))*m.GlobalWindowBytes() +
			uint32(b)*uint32(cfg.BankBytes) + o
		gt, gb, go_, err := m.GlobalTarget(addr)
		return err == nil && gt == tile && gb == b && go_ == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalAddrErrors(t *testing.T) {
	m := NewAddressMap(DefaultConfig())
	if _, _, _, err := m.GlobalTarget(0x1234); err == nil {
		t.Error("private address accepted as global")
	}
	if _, err := m.TileOf(0x1234); err == nil {
		t.Error("TileOf should fail on non-global address")
	}
}

func TestGlobalTargetSpecificTiles(t *testing.T) {
	m := NewAddressMap(DefaultConfig())
	// First byte of the global space belongs to tile (0,0) bank 0.
	tile, bank, off, err := m.GlobalTarget(GlobalBase)
	if err != nil || tile != geom.C(0, 0) || bank != 0 || off != 0 {
		t.Errorf("GlobalTarget(base) = %v,%d,%d,%v", tile, bank, off, err)
	}
	// One window up is tile (1,0) — row-major order.
	tile, _, _, err = m.GlobalTarget(GlobalBase + 512<<10)
	if err != nil || tile != geom.C(1, 0) {
		t.Errorf("second window tile = %v, want (1,0)", tile)
	}
	// Window 32 is tile (0,1).
	tile, _, _, err = m.GlobalTarget(GlobalBase + 32*(512<<10))
	if err != nil || tile != geom.C(0, 1) {
		t.Errorf("window 32 tile = %v, want (0,1)", tile)
	}
	// Last byte belongs to tile (31,31), bank 3, last offset.
	tile, bank, off, err = m.GlobalTarget(GlobalBase + 512<<20 - 1)
	if err != nil || tile != geom.C(31, 31) || bank != 3 || off != 128<<10-1 {
		t.Errorf("last byte = %v,%d,%#x,%v", tile, bank, off, err)
	}
}

func TestRegionString(t *testing.T) {
	for r, want := range map[Region]string{
		RegionPrivate: "private", RegionLocalBank: "local-bank",
		RegionGlobal: "global", RegionUnmapped: "unmapped",
	} {
		if r.String() != want {
			t.Errorf("Region %d = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestScaledConfigsStayConsistent(t *testing.T) {
	// DSE sanity: shrinking the array scales the derived quantities
	// linearly in tile count.
	base := DefaultConfig()
	small := base
	small.TilesX, small.TilesY = 8, 8
	small.JTAGChains = 8
	if err := small.Validate(); err != nil {
		t.Fatalf("8x8 config invalid: %v", err)
	}
	ratio := float64(base.Tiles()) / float64(small.Tiles())
	if got := base.ComputeThroughputOPS() / small.ComputeThroughputOPS(); math.Abs(got-ratio) > 1e-9 {
		t.Errorf("throughput ratio = %v, want %v", got, ratio)
	}
	if got := base.PeakWaferCurrentA() / small.PeakWaferCurrentA(); math.Abs(got-ratio) > 1e-9 {
		t.Errorf("current ratio = %v, want %v", got, ratio)
	}
}
