package fault

import (
	"fmt"
	"math/rand"

	"waferscale/internal/geom"
)

// Sampler draws random fault maps into reused storage. Every trial of
// the Fig. 6 style Monte Carlos is an independent draw, so the
// amortizable cost is the per-trial allocation (a fresh Map plus a
// grid-sized permutation), which the sampler replaces with two
// long-lived buffers per worker.
//
// A Sampler is not safe for concurrent use; pool one per worker
// goroutine. The map it returns is owned by the sampler and valid only
// until the next Draw — callers that retain a map must Clone it.
type Sampler struct {
	m    *Map
	perm []int
}

// NewSampler returns a sampler over the grid.
func NewSampler(grid geom.Grid) *Sampler {
	return &Sampler{m: NewMap(grid), perm: make([]int, grid.Size())}
}

// Draw returns a fault map with exactly n distinct faulty tiles drawn
// uniformly from rng. The draw is bit-identical to Random(grid, n, rng)
// for the same rng state: it replays the same partial Fisher-Yates
// shuffle (the algorithm behind rand.Perm, frozen by the Go 1
// compatibility promise) and marks the same prefix, so pooled sweeps
// reproduce unpooled ones exactly.
func (s *Sampler) Draw(n int, rng *rand.Rand) *Map {
	size := s.m.grid.Size()
	if n < 0 || n > size {
		panic(fmt.Sprintf("fault: cannot place %d faults in %v array", n, s.m.grid))
	}
	s.m.Reset()
	p := s.perm
	for i := 0; i < size; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	for _, idx := range p[:n] {
		s.m.MarkFaulty(s.m.grid.Coord(idx))
	}
	return s.m
}
