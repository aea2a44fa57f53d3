package clock

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

func healthy(w, h int) *fault.Map { return fault.NewMap(geom.NewGrid(w, h)) }

func TestSourceStrings(t *testing.T) {
	for s, want := range map[Source]string{
		SourceJTAG: "jtag", SourceMaster: "master", SourceNorth: "north",
		SourceEast: "east", SourceSouth: "south", SourceWest: "west", SourceNone: "none",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if !strings.Contains(Source(42).String(), "42") {
		t.Error("unknown source should show numeric value")
	}
}

func TestSourceDirRoundTrip(t *testing.T) {
	for _, d := range geom.Dirs() {
		s := FromDir(d)
		got, ok := s.Dir()
		if !ok || got != d {
			t.Errorf("FromDir(%v).Dir() = %v,%v", d, got, ok)
		}
	}
	if _, ok := SourceJTAG.Dir(); ok {
		t.Error("JTAG source should not map to a direction")
	}
	if FromDir(geom.Dir(9)) != SourceNone {
		t.Error("bogus dir should map to SourceNone")
	}
}

func TestRunSetupHealthyArray(t *testing.T) {
	fm := healthy(8, 8)
	cfg := DefaultSetup(fm.Grid())
	p, err := RunSetup(fm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := cfg.Generators[0]
	if p.SourceAt(gen) != SourceMaster || p.HopsAt(gen) != 0 {
		t.Errorf("generator state = %v hops %d", p.SourceAt(gen), p.HopsAt(gen))
	}
	fm.Grid().All(func(c geom.Coord) {
		if !p.Clocked(c) {
			t.Errorf("tile %v unclocked in healthy array", c)
		}
		if want := gen.Manhattan(c); p.HopsAt(c) != want {
			t.Errorf("hops at %v = %d, want Manhattan %d", c, p.HopsAt(c), want)
		}
	})
	if p.MaxHops() != gen.Manhattan(geom.C(7, 7)) && p.MaxHops() != gen.Manhattan(geom.C(7, 0)) {
		t.Errorf("MaxHops = %d", p.MaxHops())
	}
	if len(p.UnreachedTiles(fm)) != 0 {
		t.Error("healthy array should have no unreached tiles")
	}
}

// TestFig4Scenario reproduces the paper's Fig. 4: an 8x8 array with six
// faulty tiles in which exactly one healthy tile — surrounded by faults
// on all four sides — cannot receive the forwarded clock, while a tile
// with three faulty neighbors still can.
func TestFig4Scenario(t *testing.T) {
	// Fault pattern built to the figure's description: tile "2" at
	// (4,4) is boxed in by four faults; tile "3" at (1,1) has three
	// faulty neighbors but a healthy south one.
	fm := healthy(8, 8)
	for _, c := range []geom.Coord{
		geom.C(4, 5), geom.C(3, 4), geom.C(5, 4), geom.C(4, 3), // box around (4,4)
		geom.C(0, 1), geom.C(1, 2), // partial wall around (1,1); east nbr (2,1) healthy
	} {
		fm.MarkFaulty(c)
	}
	if fm.Count() != 6 {
		t.Fatalf("scenario has %d faults, want 6", fm.Count())
	}
	// Edge tile "1" generates (west edge, as in the figure).
	cfg := SetupConfig{Generators: []geom.Coord{geom.C(0, 4)}, ToggleCount: 16, HopLatency: 1}
	rep, err := AnalyzeResiliency(fm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UnreachedTiles) != 1 || rep.UnreachedTiles[0] != geom.C(4, 4) {
		t.Fatalf("unreached = %v, want exactly [(4,4)]", rep.UnreachedTiles)
	}
	if rep.ClockedTiles != fm.HealthyCount()-1 {
		t.Errorf("clocked = %d, want %d", rep.ClockedTiles, fm.HealthyCount()-1)
	}
	// Tile (1,1) — three faulty neighbors — still gets the clock.
	p, err := RunSetup(fm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Clocked(geom.C(1, 1)) {
		t.Error("tile with one healthy neighbor must still receive the clock")
	}
	// And the boxed-in tile would anyway be unusable for the network,
	// as the paper notes: it is exactly the isolated set.
	iso := fm.Isolated()
	if len(iso) != 1 || iso[0] != geom.C(4, 4) {
		t.Errorf("Isolated = %v", iso)
	}
	// Rendering shows the generator and the starved tile.
	r := p.Render(fm)
	if !strings.Contains(r, "G") || !strings.Contains(r, "!") || !strings.Contains(r, "X") {
		t.Errorf("render missing markers:\n%s", r)
	}
}

// TestSetupMatchesBFS cross-checks the event-driven simulation against
// plain reachability on random fault maps — the paper's induction
// argument in executable form.
func TestSetupMatchesBFS(t *testing.T) {
	g := geom.NewGrid(16, 16)
	f := func(seed int64, nf uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fm := fault.Random(g, int(nf)%80, rng)
		// Pick any healthy edge tile as generator; skip degenerate maps.
		var gen geom.Coord
		found := false
		for _, c := range g.EdgeCoords() {
			if fm.Healthy(c) {
				gen, found = c, true
				break
			}
		}
		if !found {
			return true
		}
		cfg := SetupConfig{Generators: []geom.Coord{gen}, ToggleCount: 16, HopLatency: 3}
		p, err := RunSetup(fm, cfg)
		if err != nil {
			return false
		}
		reach := Reachable(fm, cfg.Generators)
		ok := true
		g.All(func(c geom.Coord) {
			i := g.Index(c)
			if fm.Healthy(c) {
				if p.Clocked(c) != reach[i] {
					ok = false
				}
			} else if p.Clocked(c) {
				ok = false // faulty tiles must not be clocked
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInvertedParityMatchesHops: each hop forwards an inverted copy, so
// the received polarity must equal hop-count parity.
func TestInvertedParityMatchesHops(t *testing.T) {
	fm := healthy(8, 8)
	p, err := RunSetup(fm, DefaultSetup(fm.Grid()))
	if err != nil {
		t.Fatal(err)
	}
	fm.Grid().All(func(c geom.Coord) {
		h := p.HopsAt(c)
		if h <= 0 {
			return
		}
		if want := h%2 == 1; p.Inverted[fm.Grid().Index(c)] != want {
			t.Errorf("tile %v at %d hops: inverted=%v, want %v",
				c, h, p.Inverted[fm.Grid().Index(c)], want)
		}
	})
}

func TestMultipleGenerators(t *testing.T) {
	fm := healthy(16, 16)
	g := fm.Grid()
	cfg := SetupConfig{
		Generators:  []geom.Coord{geom.C(0, 8), geom.C(15, 8)},
		ToggleCount: 16,
		HopLatency:  1,
	}
	p, err := RunSetup(fm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.All(func(c geom.Coord) {
		want := c.Manhattan(cfg.Generators[0])
		if d := c.Manhattan(cfg.Generators[1]); d < want {
			want = d
		}
		if p.HopsAt(c) != want {
			t.Errorf("hops at %v = %d, want min-distance %d", c, p.HopsAt(c), want)
		}
	})
}

func TestSetupValidation(t *testing.T) {
	fm := healthy(8, 8)
	cases := []struct {
		name string
		cfg  SetupConfig
	}{
		{"no generators", SetupConfig{ToggleCount: 16, HopLatency: 1}},
		{"off-grid", SetupConfig{Generators: []geom.Coord{geom.C(-1, 0)}, ToggleCount: 16, HopLatency: 1}},
		{"interior generator", SetupConfig{Generators: []geom.Coord{geom.C(4, 4)}, ToggleCount: 16, HopLatency: 1}},
		{"zero toggle", SetupConfig{Generators: []geom.Coord{geom.C(0, 0)}, ToggleCount: 0, HopLatency: 1}},
		{"zero latency", SetupConfig{Generators: []geom.Coord{geom.C(0, 0)}, ToggleCount: 16, HopLatency: 0}},
	}
	for _, tc := range cases {
		if _, err := RunSetup(fm, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Faulty generator.
	fm.MarkFaulty(geom.C(0, 0))
	if _, err := RunSetup(fm, SetupConfig{Generators: []geom.Coord{geom.C(0, 0)}, ToggleCount: 16, HopLatency: 1}); err == nil {
		t.Error("faulty generator accepted")
	}
}

func TestNoSinglePointOfFailure(t *testing.T) {
	fm := healthy(8, 8)
	fm.MarkFaulty(geom.C(3, 3))
	fm.MarkFaulty(geom.C(5, 5))
	n, err := NoSinglePointOfFailure(fm)
	if err != nil {
		t.Fatalf("SPOF analysis failed: %v", err)
	}
	if n != 28 {
		t.Errorf("generator candidates = %d, want 28 (full healthy edge ring)", n)
	}
	// All edge tiles faulty: no generator possible.
	dead := fault.NewMap(geom.NewGrid(4, 4))
	for _, c := range dead.Grid().EdgeCoords() {
		dead.MarkFaulty(c)
	}
	if _, err := NoSinglePointOfFailure(dead); err == nil {
		t.Error("fully dead edge accepted")
	}
}

// TestDCDNaiveKills10Tiles reproduces the paper's example: "a 5%
// distortion per tile could kill the clock within just 10 tiles" when
// forwarding without inversion.
func TestDCDNaiveKills10Tiles(t *testing.T) {
	naive := DCDConfig{PerHopDistortion: 0.05, MinPulse: 0.1}
	depth := naive.KillDepth(32)
	if depth < 0 || depth > 10 {
		t.Errorf("naive 5%%/tile kill depth = %d, want within 10 tiles", depth)
	}
}

// TestDCDInversionBoundsError: forwarding the inverted copy keeps the
// duty cycle bounded for arbitrarily deep chains.
func TestDCDInversionBoundsError(t *testing.T) {
	inv := DCDConfig{PerHopDistortion: 0.05, InvertPerHop: true, MinPulse: 0.1}
	duty, alive := inv.Propagate(62) // deepest chain on a 32x32 array
	if alive != 62 {
		t.Fatalf("inverted clock died at hop %d", alive+1)
	}
	for h, d := range duty {
		if math.Abs(d-0.5) > 0.05+1e-12 {
			t.Errorf("hop %d duty %.3f exceeds one-hop bound", h, d)
		}
	}
}

// TestDCCClampsResidual: with DCC the error never exceeds the residual.
func TestDCCClampsResidual(t *testing.T) {
	cfg := DefaultDCD(0.05)
	if w := cfg.WorstDuty(62); w > cfg.DCCResidual+1e-12 {
		t.Errorf("worst duty error %.4f exceeds DCC residual %.4f", w, cfg.DCCResidual)
	}
	if d := cfg.KillDepth(1000); d != -1 {
		t.Errorf("DCC-protected clock died at %d", d)
	}
}

// TestDCDQuickBounded: property — inversion keeps |duty-0.5| <= |delta|
// for any per-hop distortion that a single hop survives.
func TestDCDQuickBounded(t *testing.T) {
	f := func(milli uint16, hops uint8) bool {
		delta := float64(milli%80) / 1000 // 0..7.9%
		cfg := DCDConfig{PerHopDistortion: delta, InvertPerHop: true, MinPulse: 0.05}
		duty, _ := cfg.Propagate(int(hops)%64 + 1)
		for _, d := range duty {
			if math.Abs(d-0.5) > delta+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDCDNegativeDistortion(t *testing.T) {
	cfg := DCDConfig{PerHopDistortion: -0.05, MinPulse: 0.1}
	depth := cfg.KillDepth(32)
	if depth < 0 || depth > 10 {
		t.Errorf("negative distortion kill depth = %d", depth)
	}
}

// TestPassiveCDNSubMHz: the rejected passive distribution tops out
// below 1 MHz, the paper's reason for clock forwarding.
func TestPassiveCDNSubMHz(t *testing.T) {
	cdn := DefaultPassiveCDN()
	f := cdn.MaxFrequencyHz()
	if f >= 1e6 {
		t.Errorf("passive CDN max frequency = %.3g Hz, want sub-MHz", f)
	}
	if f <= 0 {
		t.Errorf("non-physical frequency %v", f)
	}
}

func TestSelectorBootDefault(t *testing.T) {
	s := NewSelector()
	if s.Mode() != ModeBoot || s.Selected() != SourceJTAG {
		t.Errorf("boot state = %v/%v", s.Mode(), s.Selected())
	}
	// Stepping in boot mode changes nothing.
	if got := s.Step([4]bool{true, true, true, true}); got != SourceJTAG {
		t.Errorf("boot step selected %v", got)
	}
}

func TestSelectorAutoSelection(t *testing.T) {
	s := NewSelector()
	s.SetMode(ModeAuto)
	if s.Selected() != SourceNone {
		t.Errorf("auto entry selected %v", s.Selected())
	}
	// Toggle only the east input; it needs 16 toggles to win.
	level := false
	for i := 0; i < 16; i++ {
		level = !level
		got := s.Step([4]bool{false, level, false, false})
		if i < 15 && got != SourceNone {
			t.Fatalf("selected %v after only %d toggles", got, i+1)
		}
	}
	if s.Selected() != SourceEast || !s.Locked() {
		t.Errorf("final selection = %v locked=%v", s.Selected(), s.Locked())
	}
	// Once locked, a flood on another port is ignored.
	for i := 0; i < 100; i++ {
		s.Step([4]bool{i%2 == 0, false, false, false})
	}
	if s.Selected() != SourceEast {
		t.Error("lock lost after selection")
	}
}

func TestSelectorFirstToThresholdWins(t *testing.T) {
	s := NewSelector()
	s.ToggleCount = 4
	s.SetMode(ModeAuto)
	// North toggles every cycle, west every other cycle: north wins.
	n, w := false, false
	for i := 0; i < 8 && !s.Locked(); i++ {
		n = !n
		if i%2 == 0 {
			w = !w
		}
		s.Step([4]bool{n, false, false, w})
	}
	if s.Selected() != SourceNorth {
		t.Errorf("selected %v, want north (fastest to threshold)", s.Selected())
	}
}

func TestSelectorTieBreaksInPortOrder(t *testing.T) {
	s := NewSelector()
	s.ToggleCount = 3
	s.SetMode(ModeAuto)
	level := false
	for i := 0; i < 3; i++ {
		level = !level
		s.Step([4]bool{level, level, level, level})
	}
	if s.Selected() != SourceNorth {
		t.Errorf("tie selected %v, want north (port priority)", s.Selected())
	}
}

func TestSelectorModeTransitions(t *testing.T) {
	s := NewSelector()
	s.SetMode(ModeGenerate)
	if s.Selected() != SourceMaster || !s.Locked() {
		t.Errorf("generate mode = %v", s.Selected())
	}
	s.SetMode(ModeAuto)
	if s.Locked() || s.counts != [4]int{} {
		t.Error("auto entry did not reset state")
	}
	s.SetMode(ModeBoot)
	if s.Selected() != SourceJTAG {
		t.Error("boot re-entry did not restore JTAG clock")
	}
	for _, m := range []SelectorMode{ModeBoot, ModeGenerate, ModeAuto} {
		if m.String() == "" || strings.HasPrefix(m.String(), "SelectorMode") {
			t.Errorf("mode %d has no name", int(m))
		}
	}
	if !strings.Contains(SelectorMode(9).String(), "9") {
		t.Error("unknown mode should show value")
	}
}

// TestSelectorConstantLevelNeverLocks: a stuck-at input (faulty
// neighbor's dead driver) accumulates no toggles, so it can never be
// selected — the property that makes forwarding fault-tolerant.
func TestSelectorConstantLevelNeverLocks(t *testing.T) {
	s := NewSelector()
	s.SetMode(ModeAuto)
	for i := 0; i < 1000; i++ {
		s.Step([4]bool{true, true, true, true}) // all stuck high
	}
	if s.Locked() {
		t.Error("selector locked onto a non-toggling input")
	}
}

func TestRenderHealthyPlan(t *testing.T) {
	fm := healthy(4, 4)
	p, err := RunSetup(fm, SetupConfig{Generators: []geom.Coord{geom.C(0, 2)}, ToggleCount: 16, HopLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Render(fm)
	if strings.Count(r, "\n") != 4 {
		t.Errorf("render rows wrong:\n%s", r)
	}
	if !strings.Contains(r, "G") {
		t.Errorf("render missing generator:\n%s", r)
	}
}
