// Package pdn models the waferscale power-delivery network of the
// prototype (paper Section III): power enters at the wafer edge at
// 2.5 V, flows through two dedicated slotted metal planes of the Si-IF
// substrate, droops resistively toward the array center (to roughly
// 1.4 V at peak draw, the paper's Fig. 2), and is regulated down to the
// 1.0-1.2 V logic window by a wide-input LDO inside every compute
// chiplet backed by ~20 nF of on-chip decoupling capacitance per tile.
//
// The solver is a standard nodal DC IR-drop analysis: one node per
// tile, link conductances from the effective round-trip sheet
// resistance of the VDD+GND plane pair, Dirichlet boundary on the edge
// ring (edge tiles sit next to the connectors), and a constant-current
// sink at every interior tile (an LDO passes its load current through
// regardless of input voltage). Successive over-relaxation with
// red-black node ordering converges in a few hundred sweeps on the
// 32x32 array; because a red node only reads black neighbors (and vice
// versa), the rows of each half-sweep run in parallel across a chunked
// goroutine pool with no data races, and the result is bit-identical
// at any worker count. Convergence is declared on the scaled residual
// — the worst per-node KCL violation |gLink*sum(Vn-Vi) - Itile|
// expressed in volts — not on the last update delta, which shrinks by
// the over-relaxation factor and underestimates the true error as the
// spectral radius approaches one.
package pdn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"waferscale/internal/geom"
	"waferscale/internal/parallel"
)

// DefaultSheetResistanceOhm is the effective round-trip sheet
// resistance (VDD plane + GND return, including slotting and contact
// resistance) used for the prototype analyses, in ohms per square.
//
// Calibration: a 2 um copper plane is ~8.5 mOhm/sq; the paper's "dense
// slotted planes" roughly halve the metal density, and the round trip
// doubles it again, landing in the tens of mOhm/sq. The exact value
// below is calibrated once so that the 32x32 array at the paper's peak
// draw (~290 A total) droops from 2.5 V at the edge to ~1.4 V at the
// center, reproducing Fig. 2; the *shape* of the droop map is entirely
// the solver's.
const DefaultSheetResistanceOhm = 0.0539

// Config parametrizes a DC solve of the wafer PDN.
type Config struct {
	Grid         geom.Grid // tile array (paper: 32x32)
	EdgeVolts    float64   // supply at the edge ring (paper: 2.5 V)
	TileCurrentA float64   // current sink per interior tile (paper: ~0.29 A)
	SheetOhm     float64   // effective round-trip sheet resistance, ohm/sq

	// InteriorSupplies optionally adds Dirichlet supply nodes away from
	// the edge, modelling through-wafer vias (TWVs, paper's not-yet-
	// ready alternative). Empty for the prototype's edge-only delivery.
	InteriorSupplies []geom.Coord

	// Tolerance is the max scaled residual at convergence: the worst
	// per-node KCL violation |gLink*sum(Vn-Vi) - Itile| divided by the
	// node's total link conductance, in volts. Zero means 1 uV.
	Tolerance float64
	// MaxSweeps bounds the SOR iteration; zero means 200000.
	MaxSweeps int

	// Workers bounds the goroutines relaxing row chunks of each
	// red-black half-sweep; 0 means GOMAXPROCS. The voltage map is
	// bit-identical at every worker count.
	Workers int

	// Progress, when non-nil, is invoked every progressEvery sweeps
	// with the sweep count so far and the scaled residual of the last
	// sweep (in volts) — the convergence signal the serve layer streams
	// to clients — and once more when the solve converges or gives up
	// between two ticks. It is called from the goroutine driving the
	// solve, never concurrently. It does not affect the solution.
	Progress func(sweeps int, residualV float64)
}

// progressEvery is the sweep interval between Progress calls and
// between SolveCtx's cancellation checks.
const progressEvery = 200

// DefaultConfig returns the prototype PDN operating point for the grid.
func DefaultConfig(grid geom.Grid, tileCurrentA float64) Config {
	return Config{
		Grid:         grid,
		EdgeVolts:    2.5,
		TileCurrentA: tileCurrentA,
		SheetOhm:     DefaultSheetResistanceOhm,
	}
}

// Solution holds the solved voltage map and derived quantities.
type Solution struct {
	Grid     geom.Grid
	Volts    []float64 // node voltage per tile, row-major
	Sweeps   int       // SOR sweeps used
	Residual float64   // scaled residual of the final sweep, volts

	cfg Config
}

// ErrNoConvergence is returned when SOR fails to reach tolerance.
var ErrNoConvergence = errors.New("pdn: SOR did not converge")

// Solve runs the nodal analysis and returns the voltage map.
func Solve(cfg Config) (*Solution, error) {
	return SolveCtx(context.Background(), cfg)
}

// SolveCtx is Solve with cancellation: ctx is checked every
// progressEvery (200) sweeps (so cancellation lands within a bounded
// amount of work) and on cancellation (nil, ctx.Err()) is returned —
// a half-converged voltage map is never exposed. The solution is
// bit-identical to Solve's for any ctx that is not cancelled.
func SolveCtx(ctx context.Context, cfg Config) (*Solution, error) {
	g := cfg.Grid
	if g.W < 3 || g.H < 3 {
		return nil, fmt.Errorf("pdn: grid %v too small (need interior nodes)", g)
	}
	if cfg.EdgeVolts <= 0 || cfg.TileCurrentA < 0 || cfg.SheetOhm <= 0 {
		return nil, fmt.Errorf("pdn: non-physical parameters: %.3gV %.3gA %.3gohm",
			cfg.EdgeVolts, cfg.TileCurrentA, cfg.SheetOhm)
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-6
	}
	maxSweeps := cfg.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 200000
	}

	fixed := make([]bool, g.Size())
	v := make([]float64, g.Size())
	for i := range v {
		v[i] = cfg.EdgeVolts
		fixed[i] = g.OnEdge(g.Coord(i))
	}
	for _, c := range cfg.InteriorSupplies {
		if !g.In(c) {
			return nil, fmt.Errorf("pdn: interior supply %v outside %v", c, g)
		}
		fixed[g.Index(c)] = true
	}

	// Link conductance between adjacent tile nodes: the tile pitch and
	// plane width per tile are equal, so each link is one square of the
	// plane pair.
	gLink := 1 / cfg.SheetOhm
	rhs := cfg.TileCurrentA / gLink
	// Optimal-ish SOR factor for a Laplacian on an N-point grid.
	n := g.W
	if g.H > n {
		n = g.H
	}
	omega := 2 / (1 + math.Sin(math.Pi/float64(n)))

	// relaxColor relaxes the nodes of one color ((x+y)%2 == color) in
	// rows [y0, y1) and returns the chunk's worst pre-update scaled
	// residual |target - Vi| = |gLink*sum(Vn-Vi) - Itile| / (gLink*deg).
	// A node of one color only reads neighbors of the other, so chunks
	// of the same color never race and each node sees the exact same
	// neighbor values regardless of chunking — bit-identical results.
	relaxColor := func(y0, y1, color int) float64 {
		maxResid := 0.0
		for y := y0; y < y1; y++ {
			base := y * g.W
			for x := (color + y) & 1; x < g.W; x += 2 {
				i := base + x
				if fixed[i] {
					continue
				}
				// Kirchhoff at node i: gLink*sum(Vn - Vi) = Itile.
				var sum float64
				var deg float64
				if x > 0 {
					sum += v[i-1]
					deg++
				}
				if x < g.W-1 {
					sum += v[i+1]
					deg++
				}
				if y > 0 {
					sum += v[i-g.W]
					deg++
				}
				if y < g.H-1 {
					sum += v[i+g.W]
					deg++
				}
				target := (sum - rhs) / deg
				d := target - v[i]
				v[i] += omega * d
				if d < 0 {
					d = -d
				}
				if d > maxResid {
					maxResid = d
				}
			}
		}
		return maxResid
	}

	workers := parallel.Workers(cfg.Workers, g.H)

	// sweep runs both half-sweeps (red then black, with a barrier
	// between) and returns the worst scaled residual observed.
	var sweep func() float64
	if workers == 1 {
		sweep = func() float64 {
			r := relaxColor(0, g.H, 0)
			if b := relaxColor(0, g.H, 1); b > r {
				r = b
			}
			return r
		}
	} else {
		// Persistent chunked scheduler: one goroutine per contiguous
		// row chunk, re-dispatched each half-sweep, so the per-sweep
		// cost is two channel round trips per worker instead of a pool
		// spawn.
		jobs := make([]chan int, workers)
		resid := make(chan float64, workers)
		chunk := (g.H + workers - 1) / workers
		for w := 0; w < workers; w++ {
			y0 := w * chunk
			y1 := y0 + chunk
			if y1 > g.H {
				y1 = g.H
			}
			jobs[w] = make(chan int)
			go func(y0, y1 int, job <-chan int) {
				for color := range job {
					resid <- relaxColor(y0, y1, color)
				}
			}(y0, y1, jobs[w])
		}
		defer func() {
			for _, j := range jobs {
				close(j)
			}
		}()
		sweep = func() float64 {
			maxResid := 0.0
			for color := 0; color < 2; color++ {
				for _, j := range jobs {
					j <- color
				}
				for range jobs {
					if r := <-resid; r > maxResid {
						maxResid = r
					}
				}
			}
			return maxResid
		}
	}

	lastResid := math.Inf(1)
	for sweeps := 0; sweeps < maxSweeps; sweeps++ {
		r := sweep()
		lastResid = r
		if r < tol {
			// Terminal progress tick: without it a stream ends at the
			// last progressEvery boundary, up to progressEvery-1 sweeps
			// stale.
			if cfg.Progress != nil {
				cfg.Progress(sweeps+1, r)
			}
			return &Solution{Grid: g, Volts: v, Sweeps: sweeps + 1, Residual: r, cfg: cfg}, nil
		}
		if (sweeps+1)%progressEvery == 0 {
			if cfg.Progress != nil {
				cfg.Progress(sweeps+1, r)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	// Non-convergence is terminal too: report the final residual so the
	// stream's last value reflects where the solve actually gave up.
	if cfg.Progress != nil && maxSweeps%progressEvery != 0 {
		cfg.Progress(maxSweeps, lastResid)
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConvergence, maxSweeps)
}

// VoltAt returns the solved voltage at a tile.
func (s *Solution) VoltAt(c geom.Coord) float64 {
	return s.Volts[s.Grid.Index(c)]
}

// MinVolt returns the lowest node voltage (the array-center worst case
// for edge delivery) and its location.
func (s *Solution) MinVolt() (float64, geom.Coord) {
	min, at := math.Inf(1), geom.Coord{}
	for i, vv := range s.Volts {
		if vv < min {
			min, at = vv, s.Grid.Coord(i)
		}
	}
	return min, at
}

// MaxVolt returns the highest node voltage and its location.
func (s *Solution) MaxVolt() (float64, geom.Coord) {
	max, at := math.Inf(-1), geom.Coord{}
	for i, vv := range s.Volts {
		if vv > max {
			max, at = vv, s.Grid.Coord(i)
		}
	}
	return max, at
}

// ResistiveLossW returns the total I^2R power dissipated in the planes:
// the sum over links of g*(Vi-Vj)^2.
func (s *Solution) ResistiveLossW() float64 {
	g := s.Grid
	gLink := 1 / s.cfg.SheetOhm
	var loss float64
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			i := y*g.W + x
			if x < g.W-1 {
				d := s.Volts[i] - s.Volts[i+1]
				loss += gLink * d * d
			}
			if y < g.H-1 {
				d := s.Volts[i] - s.Volts[i+g.W]
				loss += gLink * d * d
			}
		}
	}
	return loss
}

// Profile returns the voltage along a west-to-east cut through row y —
// the 1-D curve the paper's Fig. 2 sketches (2.5 V at the edges, the
// minimum in the middle).
func (s *Solution) Profile(y int) []float64 {
	out := make([]float64, s.Grid.W)
	for x := range out {
		out[x] = s.VoltAt(geom.C(x, y))
	}
	return out
}

// DroopMapString renders the voltage map as rows of numbers (north row
// first), for the CLI and reports.
func (s *Solution) DroopMapString() string {
	out := ""
	for y := s.Grid.H - 1; y >= 0; y-- {
		for x := 0; x < s.Grid.W; x++ {
			out += fmt.Sprintf("%5.2f ", s.VoltAt(geom.C(x, y)))
		}
		out += "\n"
	}
	return out
}

// CalibrateSheetResistance finds, by bisection, the effective sheet
// resistance at which the array-center voltage equals targetCenterV for
// the given operating point. This is how DefaultSheetResistanceOhm was
// derived from the paper's 1.4 V center figure.
func CalibrateSheetResistance(cfg Config, targetCenterV float64) (float64, error) {
	if targetCenterV <= 0 || targetCenterV >= cfg.EdgeVolts {
		return 0, fmt.Errorf("pdn: target %.3g V outside (0, %.3g V)", targetCenterV, cfg.EdgeVolts)
	}
	lo, hi := 1e-5, 1.0 // ohm/sq bracket: droop grows monotonically with Rs
	centerAt := func(rs float64) (float64, error) {
		c := cfg
		c.SheetOhm = rs
		sol, err := Solve(c)
		if err != nil {
			return 0, err
		}
		min, _ := sol.MinVolt()
		return min, nil
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		v, err := centerAt(mid)
		if err != nil {
			return 0, err
		}
		if v > targetCenterV {
			lo = mid // not enough droop yet
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
