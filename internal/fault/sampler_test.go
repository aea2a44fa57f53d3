package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"waferscale/internal/geom"
)

// TestSamplerMatchesRandom: a pooled draw must be bit-identical to
// Random for the same rng seed — same faulty set AND same rng state
// afterwards (the sampler replays rand.Perm's exact consumption).
func TestSamplerMatchesRandom(t *testing.T) {
	grid := geom.NewGrid(9, 7)
	s := NewSampler(grid)
	for _, n := range []int{0, 1, 5, grid.Size() / 2, grid.Size()} {
		for seed := int64(1); seed <= 20; seed++ {
			r1 := rand.New(rand.NewSource(seed))
			r2 := rand.New(rand.NewSource(seed))
			want := Random(grid, n, r1)
			got := s.Draw(n, r2)
			if got.Count() != want.Count() {
				t.Fatalf("n=%d seed=%d: count %d, want %d", n, seed, got.Count(), want.Count())
			}
			if !reflect.DeepEqual(got.FaultyCoords(), want.FaultyCoords()) {
				t.Fatalf("n=%d seed=%d: faulty sets diverge:\n%v\n%v", n, seed, got.FaultyCoords(), want.FaultyCoords())
			}
			if g, w := r2.Int63(), r1.Int63(); g != w {
				t.Fatalf("n=%d seed=%d: rng state diverges after draw (%d vs %d)", n, seed, g, w)
			}
		}
	}
}

// TestSamplerReuse: consecutive draws must not leak faults between
// trials (Reset runs every draw), and the second draw of a seed matches
// the first.
func TestSamplerReuse(t *testing.T) {
	grid := geom.NewGrid(6, 6)
	s := NewSampler(grid)
	a := s.Draw(10, rand.New(rand.NewSource(3))).FaultyCoords()
	if got := s.Draw(0, rand.New(rand.NewSource(4))); got.Count() != 0 {
		t.Fatalf("faults leaked across draws: %d", got.Count())
	}
	b := s.Draw(10, rand.New(rand.NewSource(3))).FaultyCoords()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat draw diverges: %v vs %v", a, b)
	}
}

// TestSamplerPanicsOutOfRange mirrors Random's contract.
func TestSamplerPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized draw")
		}
	}()
	NewSampler(geom.NewGrid(2, 2)).Draw(5, rand.New(rand.NewSource(1)))
}
