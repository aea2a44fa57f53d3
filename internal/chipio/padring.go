package chipio

import (
	"fmt"
	"math"

	"waferscale/internal/geom"
)

// SignalClass assigns an I/O to one of the two column sets of the
// single-layer-fallback floorplan (paper Section VIII): the first set —
// the two columns closest to the die edge, routable with one substrate
// layer — carries everything the system cannot live without; the second
// set needs the second routing layer.
type SignalClass int

// The signal classes.
const (
	// ClassEssential signals sit in the first I/O column set: all
	// network link I/Os plus two of the five memory banks.
	ClassEssential SignalClass = iota
	// ClassSecondary signals sit in the outer set: non-essential I/Os
	// and the remaining three memory banks.
	ClassSecondary
)

// String returns the class name.
func (c SignalClass) String() string {
	if c == ClassEssential {
		return "essential"
	}
	return "secondary"
}

// Pad is one bonded structure on a chiplet.
type Pad struct {
	Name     string
	Class    SignalClass
	Probe    bool       // larger duplicate pad for pre-bond probing only
	Center   geom.Point // location on the die, microns from die SW corner
	WidthUM  float64
	HeightUM float64
	Pillars  int // copper pillars landing on the pad (0 for probe pads)
}

// Area returns the pad area in um^2.
func (p Pad) Area() float64 { return p.WidthUM * p.HeightUM }

// PadRing plans the I/O structures of one chiplet.
type PadRing struct {
	DieWidthUM, DieHeightUM float64
	Pads                    []Pad
}

// RingConfig drives pad-ring generation.
type RingConfig struct {
	DieWidthMM, DieHeightMM float64
	SignalIOs               int     // fine-pitch signal pads
	EssentialFrac           float64 // fraction in the first column set
	ProbePads               int     // larger probe-only pads (JTAG + aux)
	PillarsPerPad           int
}

// BuildPadRing lays out the I/O structures of a chiplet:
//
//   - Fine-pitch pads are placed in column pairs along all four die
//     edges at the pillar pitch; each pad is 7 um wide and tall enough
//     for two pillars placed orthogonal to the die edge (Fig. 5), which
//     maximizes I/O density per mm of edge.
//   - The essential (first-set) columns sit closest to the edge; the
//     secondary set sits one column pair further in.
//   - Probe pads are placed in the die interior at the probe pitch.
func BuildPadRing(cfg RingConfig) (*PadRing, error) {
	if cfg.DieWidthMM <= 0 || cfg.DieHeightMM <= 0 {
		return nil, fmt.Errorf("chipio: non-positive die %gx%g mm", cfg.DieWidthMM, cfg.DieHeightMM)
	}
	if cfg.SignalIOs < 1 {
		return nil, fmt.Errorf("chipio: need at least one signal I/O")
	}
	if cfg.EssentialFrac < 0 || cfg.EssentialFrac > 1 {
		return nil, fmt.Errorf("chipio: essential fraction %g outside [0,1]", cfg.EssentialFrac)
	}
	if cfg.PillarsPerPad < 1 || cfg.PillarsPerPad > 2 {
		return nil, fmt.Errorf("chipio: %d pillars per pad unsupported (1 or 2)", cfg.PillarsPerPad)
	}
	w := cfg.DieWidthMM * 1000
	h := cfg.DieHeightMM * 1000
	ring := &PadRing{DieWidthUM: w, DieHeightUM: h}

	// Pad geometry: 7 um wide; two pillars at 10 um pitch orthogonal to
	// the edge need a 17 um tall pad; a single pillar needs 7 um.
	padW := PadWidthUM
	padH := PadWidthUM + float64(cfg.PillarsPerPad-1)*PillarPitchUM

	// Capacity per edge per column: one pad per pillar pitch.
	perCol := func(edgeLenUM float64) int { return int(edgeLenUM / PillarPitchUM) }
	// Edges in placement order: S, N (length w), W, E (length h).
	type edge struct {
		horizontal bool
		lenUM      float64
		at         float64 // the fixed coordinate of the die boundary
		inward     float64 // +1 if increasing coordinate moves into the die
	}
	edges := []edge{
		{true, w, 0, 1},   // south
		{true, w, h, -1},  // north
		{false, h, 0, 1},  // west
		{false, h, w, -1}, // east
	}

	nEss := int(math.Round(cfg.EssentialFrac * float64(cfg.SignalIOs)))
	placed := 0
	// Column sets: set 0 (essential) hugs the edge; set 1 (secondary)
	// is the next pair inward.
	for set := 0; set < 2 && placed < cfg.SignalIOs; set++ {
		for colPair := 0; colPair < 2 && placed < cfg.SignalIOs; colPair++ {
			colOffset := (float64(set*2+colPair) + 0.5) * (padH + 3)
			for _, e := range edges {
				n := perCol(e.lenUM)
				for i := 0; i < n && placed < cfg.SignalIOs; i++ {
					class := ClassEssential
					if placed >= nEss {
						class = ClassSecondary
					}
					// Essential pads must be in set 0; if the essential
					// budget spills into set 1 the config is infeasible,
					// checked below.
					pos := (float64(i) + 0.5) * PillarPitchUM
					var center geom.Point
					if e.horizontal {
						center = geom.Pt(pos, e.at+e.inward*colOffset)
					} else {
						center = geom.Pt(e.at+e.inward*colOffset, pos)
					}
					ring.Pads = append(ring.Pads, Pad{
						Name:     fmt.Sprintf("io%04d", placed),
						Class:    class,
						Center:   center,
						WidthUM:  padW,
						HeightUM: padH,
						Pillars:  cfg.PillarsPerPad,
					})
					placed++
				}
			}
		}
	}
	if placed < cfg.SignalIOs {
		return nil, fmt.Errorf("chipio: die perimeter fits only %d of %d I/Os in two column sets",
			placed, cfg.SignalIOs)
	}

	// Probe pads: larger duplicates for JTAG and auxiliary test signals,
	// placed in the interior at probe pitch (Fig. 8). They are probed
	// during KGD testing and never bonded.
	probeSize := 60.0
	for i := 0; i < cfg.ProbePads; i++ {
		x := 100 + float64(i%8)*ProbePadPitchUM*1.5
		y := h/2 + float64(i/8)*ProbePadPitchUM*1.5 - 100
		ring.Pads = append(ring.Pads, Pad{
			Name:     fmt.Sprintf("probe%02d", i),
			Class:    ClassEssential, // JTAG must work in the fallback too
			Probe:    true,
			Center:   geom.Pt(x, y),
			WidthUM:  probeSize,
			HeightUM: probeSize,
			Pillars:  0,
		})
	}
	return ring, nil
}

// SignalPads returns the bonded (non-probe) pads.
func (r *PadRing) SignalPads() []Pad {
	var out []Pad
	for _, p := range r.Pads {
		if !p.Probe {
			out = append(out, p)
		}
	}
	return out
}

// CountClass returns the number of bonded pads in a class.
func (r *PadRing) CountClass(c SignalClass) int {
	n := 0
	for _, p := range r.Pads {
		if !p.Probe && p.Class == c {
			n++
		}
	}
	return n
}

// TotalIOAreaMM2 returns the silicon area of all I/O structures —
// the paper's "total I/O area is only 0.4 mm^2" figure combines the
// transceiver cells under the signal pads with the probe pads.
func (r *PadRing) TotalIOAreaMM2(cell IOCell) float64 {
	var um2 float64
	for _, p := range r.Pads {
		if p.Probe {
			um2 += p.Area()
			continue
		}
		// The transceiver sits entirely under the pad; count whichever
		// footprint is larger.
		um2 += math.Max(p.Area(), cell.AreaUM2)
	}
	return um2 / 1e6
}

// FallbackReport describes what survives if only one substrate routing
// layer yields (paper Section VIII).
type FallbackReport struct {
	UsableIOs        int // essential-set pads still connected
	LostIOs          int // secondary-set pads with no routing layer
	SharedBanksKept  int // memory banks reachable (2 of 5)
	SharedBanksTotal int
	CapacityLossPct  float64 // shared-memory capacity reduction (60%)
	SystemAlive      bool    // network + >=1 bank still connected
}

// SingleLayerFallback evaluates the ring against the paper's fallback
// plan: the first column set (all network links + 2 of the 5 banks)
// routes on layer one; everything else is lost.
func (r *PadRing) SingleLayerFallback(banksTotal, banksEssential int) FallbackReport {
	rep := FallbackReport{
		UsableIOs:        r.CountClass(ClassEssential),
		LostIOs:          r.CountClass(ClassSecondary),
		SharedBanksKept:  banksEssential,
		SharedBanksTotal: banksTotal,
	}
	if banksTotal > 0 {
		rep.CapacityLossPct = 100 * float64(banksTotal-banksEssential) / float64(banksTotal)
	}
	rep.SystemAlive = rep.UsableIOs > 0 && banksEssential >= 1
	return rep
}
