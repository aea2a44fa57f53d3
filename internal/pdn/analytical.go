package pdn

import (
	"fmt"
	"math"

	"waferscale/internal/geom"
)

// Analytical fast path for the edge-delivery droop solve. The SOR
// solver iterates a 5-point Laplacian to convergence; for the
// edge-only Dirichlet configuration (no interior TWV supplies) the
// same discrete system has a closed-form separable solution, so a
// design-space screen can ask "does this array size regulate at this
// edge voltage?" in microseconds instead of a full nodal solve.
//
// Derivation: with u = V - EdgeVolts the interior nodes satisfy
//
//	4*u(x,y) - sum(u_neighbors) = -Itile*SheetOhm,  u = 0 on the edge ring
//
// i.e. a discrete Poisson equation with constant right-hand side on
// the (W-2)x(H-2) interior grid. The eigenvectors of the 1-D Dirichlet
// Laplacian are sin(pi*p*i/(M+1)) with eigenvalues 2-2cos(pi*p/(M+1)),
// and the sine transform of a constant has a closed form (cot(theta/2)
// for odd modes, zero for even), so the solution is a double sum over
// odd (p,q) modes — no iteration, no truncation error. Agreement with
// pdn.Solve is limited only by the SOR convergence tolerance (see
// TestEstimateDroopMatchesSolve), which is what makes the analytical
// screen safe to gate a verified re-evaluation tier on.

// DroopEstimate is the closed-form answer for one operating point.
type DroopEstimate struct {
	Grid      geom.Grid
	EdgeVolts float64
	MinVolt   float64    // lowest node voltage (array center)
	MinAt     geom.Coord // its location
}

// EstimateDroop solves the edge-delivery droop map in closed form and
// returns the center (minimum) voltage. It rejects configurations the
// series solution does not cover (interior supply nodes): those need
// the full nodal solver.
func EstimateDroop(cfg Config) (*DroopEstimate, error) {
	if len(cfg.InteriorSupplies) > 0 {
		return nil, fmt.Errorf("pdn: analytical droop covers edge-only delivery (got %d interior supplies)", len(cfg.InteriorSupplies))
	}
	g := cfg.Grid
	if g.W < 3 || g.H < 3 {
		return nil, fmt.Errorf("pdn: grid %v too small (need interior nodes)", g)
	}
	if cfg.EdgeVolts <= 0 || cfg.TileCurrentA < 0 || cfg.SheetOhm <= 0 {
		return nil, fmt.Errorf("pdn: non-physical parameters: %.3gV %.3gA %.3gohm",
			cfg.EdgeVolts, cfg.TileCurrentA, cfg.SheetOhm)
	}
	s := newSeries(cfg)
	// By symmetry of the constant-load problem the minimum sits at the
	// interior center; with an even interior span the plateau is 2 nodes
	// wide, so probe every center candidate and keep the lowest.
	est := &DroopEstimate{Grid: g, EdgeVolts: cfg.EdgeVolts, MinVolt: math.Inf(1)}
	for _, ix := range centerIndices(s.mx) {
		for _, iy := range centerIndices(s.my) {
			v := cfg.EdgeVolts + s.at(ix, iy)
			if v < est.MinVolt {
				est.MinVolt = v
				est.MinAt = geom.C(ix, iy)
			}
		}
	}
	return est, nil
}

// centerIndices returns the one or two grid coordinates of the
// interior center along an axis with m interior nodes (interior nodes
// occupy grid indices 1..m).
func centerIndices(m int) []int {
	if m%2 == 1 {
		return []int{(m + 1) / 2}
	}
	return []int{m / 2, m/2 + 1}
}

// droopSeries holds the precomputed per-axis mode tables of the double
// sine series for one Config.
type droopSeries struct {
	mx, my int       // interior node counts per axis
	ax, ay []float64 // per-odd-mode transform coefficients
	lx, ly []float64 // per-odd-mode 1-D eigenvalues
	tx, ty []float64 // per-odd-mode angular frequencies pi*p/(M+1)
	rhs    float64   // Itile * SheetOhm
}

func newSeries(cfg Config) *droopSeries {
	s := &droopSeries{
		mx:  cfg.Grid.W - 2,
		my:  cfg.Grid.H - 2,
		rhs: cfg.TileCurrentA * cfg.SheetOhm,
	}
	s.ax, s.lx, s.tx = axisModes(s.mx)
	s.ay, s.ly, s.ty = axisModes(s.my)
	return s
}

// axisModes tabulates, for the odd modes p = 1, 3, 5, ... of an axis
// with m interior nodes, the constant-function transform coefficient
// (2/(m+1))*cot(theta/2), the eigenvalue 2-2cos(theta), and the
// frequency theta = pi*p/(m+1).
func axisModes(m int) (coef, lam, theta []float64) {
	for p := 1; p <= m; p += 2 {
		th := math.Pi * float64(p) / float64(m+1)
		coef = append(coef, 2/float64(m+1)/math.Tan(th/2))
		lam = append(lam, 2-2*math.Cos(th))
		theta = append(theta, th)
	}
	return coef, lam, theta
}

// at evaluates u (the droop below EdgeVolts, always <= 0) at grid
// coordinates (x, y); both must be interior (1..m).
func (s *droopSeries) at(x, y int) float64 {
	var u float64
	for p, axp := range s.ax {
		sx := math.Sin(s.tx[p] * float64(x))
		for q, ayq := range s.ay {
			sy := math.Sin(s.ty[q] * float64(y))
			u += axp * ayq / (s.lx[p] + s.ly[q]) * sx * sy
		}
	}
	return -s.rhs * u
}
