package fault

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"waferscale/internal/geom"
)

func TestMapMarking(t *testing.T) {
	m := NewMap(geom.NewGrid(4, 4))
	c := geom.C(1, 2)
	if m.Faulty(c) {
		t.Fatal("fresh map should be healthy")
	}
	m.MarkFaulty(c)
	if !m.Faulty(c) || m.Count() != 1 {
		t.Fatalf("after mark: faulty=%v count=%d", m.Faulty(c), m.Count())
	}
	m.MarkFaulty(c) // idempotent
	if m.Count() != 1 {
		t.Errorf("double mark changed count to %d", m.Count())
	}
	m.MarkHealthy(c)
	m.MarkHealthy(c)
	if m.Faulty(c) || m.Count() != 0 {
		t.Errorf("after clear: faulty=%v count=%d", m.Faulty(c), m.Count())
	}
	if m.HealthyCount() != 16 {
		t.Errorf("healthy count = %d, want 16", m.HealthyCount())
	}
}

func TestOutOfGridIsFaulty(t *testing.T) {
	m := NewMap(geom.NewGrid(3, 3))
	for _, c := range []geom.Coord{geom.C(-1, 0), geom.C(3, 0), geom.C(0, -1), geom.C(0, 3)} {
		if !m.Faulty(c) {
			t.Errorf("%v outside grid should read faulty", c)
		}
		if m.Healthy(c) {
			t.Errorf("%v outside grid should not read healthy", c)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMap(geom.NewGrid(4, 4))
	m.MarkFaulty(geom.C(0, 0))
	c := m.Clone()
	c.MarkFaulty(geom.C(3, 3))
	if m.Faulty(geom.C(3, 3)) {
		t.Error("clone mutation leaked into original")
	}
	if c.Count() != 2 || m.Count() != 1 {
		t.Errorf("counts = clone %d, orig %d", c.Count(), m.Count())
	}
}

func TestResetClearsEverything(t *testing.T) {
	m := Random(geom.NewGrid(8, 8), 10, rand.New(rand.NewSource(1)))
	m.Reset()
	if m.Count() != 0 {
		t.Errorf("count after reset = %d", m.Count())
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := Random(geom.NewGrid(8, 6), trial, rng)
		rows := strings.Split(strings.TrimSuffix(m.String(), "\n"), "\n")
		if len(rows) != 6 || strings.Count(m.String(), "X") != m.Count() {
			t.Fatalf("drawing has %d rows and %d faults, want 6 and %d",
				len(rows), strings.Count(m.String(), "X"), m.Count())
		}
		for _, c := range m.FaultyCoords() {
			if rows[5-c.Y][c.X] != 'X' {
				t.Fatalf("fault at %v missing from the drawing", c)
			}
		}
	}
}

func TestParseOrientation(t *testing.T) {
	// First text row is the north (max Y) row.
	m := NewMap(geom.NewGrid(2, 2))
	m.MarkFaulty(geom.C(0, 1))
	if got := m.String(); got != "X.\n..\n" {
		t.Errorf("north-west fault drawn as %q", got)
	}
}

func TestRandomExactCount(t *testing.T) {
	g := geom.NewGrid(32, 32)
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 5, 50, 1024} {
		m := Random(g, n, rng)
		if m.Count() != n {
			t.Errorf("Random(%d) produced %d faults", n, m.Count())
		}
		if got := len(m.FaultyCoords()); got != n {
			t.Errorf("FaultyCoords len = %d, want %d", got, n)
		}
	}
}

func TestRandomPanicsOnOverfill(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Random(geom.NewGrid(2, 2), 5, rand.New(rand.NewSource(1)))
}

func TestRandomIsUniform(t *testing.T) {
	// Each tile of a 4x4 grid should be hit ~ n*trials/16 times.
	g := geom.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(9))
	hits := make([]int, 16)
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, c := range Random(g, 4, rng).FaultyCoords() {
			hits[g.Index(c)]++
		}
	}
	want := float64(4*trials) / 16
	for i, h := range hits {
		if math.Abs(float64(h)-want) > 0.15*want {
			t.Errorf("tile %d hit %d times, want ~%.0f", i, h, want)
		}
	}
}

func TestFromYieldMatchesProbability(t *testing.T) {
	g := geom.NewGrid(64, 64)
	rng := rand.New(rand.NewSource(3))
	const p = 0.05
	total := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		total += FromYield(g, p, rng).Count()
	}
	mean := float64(total) / trials
	want := p * float64(g.Size())
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("mean faults = %.1f, want ~%.1f", mean, want)
	}
}

func TestConnectedToEdgeNoFaults(t *testing.T) {
	m := NewMap(geom.NewGrid(8, 8))
	reach := m.ConnectedToEdge()
	for i, r := range reach {
		if !r {
			t.Fatalf("tile %v unreachable in healthy array", m.Grid().Coord(i))
		}
	}
}

func TestConnectedToEdgeWalledOff(t *testing.T) {
	// Wall off the center tile of a 5x5 with its 4 neighbors faulty.
	m := NewMap(geom.NewGrid(5, 5))
	center := geom.C(2, 2)
	for _, n := range center.Neighbors() {
		m.MarkFaulty(n)
	}
	reach := m.ConnectedToEdge()
	if reach[m.Grid().Index(center)] {
		t.Error("walled-off center should be unreachable")
	}
	iso := m.Isolated()
	if len(iso) != 1 || iso[0] != center {
		t.Errorf("Isolated = %v, want [%v]", iso, center)
	}
	// All other healthy tiles still reachable.
	for _, c := range m.HealthyCoords() {
		if c == center {
			continue
		}
		if !reach[m.Grid().Index(c)] {
			t.Errorf("%v should be reachable", c)
		}
	}
}

func TestConnectedToEdgeDiagonalNotEnough(t *testing.T) {
	// 4-connectivity only: a diagonal gap must not leak reachability.
	m := NewMap(geom.NewGrid(5, 5))
	for _, c := range geom.C(2, 2).Neighbors() {
		m.MarkFaulty(c)
	}
	reach := m.ConnectedToEdge()
	if reach[m.Grid().Index(geom.C(2, 2))] {
		t.Error("ring-enclosed tile must be unreachable under 4-connectivity")
	}
}

// TestReachabilityInductionProperty verifies the paper's induction
// argument (Section IV): the generated clock reaches every non-faulty
// tile unless the tile is disconnected from the edge by faulty tiles —
// in particular, any healthy tile with a healthy neighbor that is
// reachable is itself reachable.
func TestReachabilityInductionProperty(t *testing.T) {
	g := geom.NewGrid(16, 16)
	f := func(seed int64, nf uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(g, int(nf)%60, rng)
		reach := m.ConnectedToEdge()
		ok := true
		g.All(func(c geom.Coord) {
			if !m.Healthy(c) {
				if reach[g.Index(c)] {
					ok = false // faulty tiles never reachable
				}
				return
			}
			if g.OnEdge(c) && !reach[g.Index(c)] {
				ok = false // healthy edge tiles always reachable
			}
			for _, n := range c.Neighbors() {
				if g.In(n) && m.Healthy(n) && reach[g.Index(n)] && !reach[g.Index(c)] {
					ok = false // induction step violated
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCollectStats(t *testing.T) {
	s := Collect([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("stats = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if z := Collect(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty stats = %+v", z)
	}
	one := Collect([]float64{7})
	if one.StdDev != 0 || one.Mean != 7 {
		t.Errorf("single-sample stats = %+v", one)
	}
}
