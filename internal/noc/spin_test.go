package noc

import (
	"math/rand"
	"slices"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TestFastForwardShiftsLivePackets: FastForward moves a network span
// cycles on without stepping it. Every queued and in-flight packet
// keeps its place and lands span cycles later, with its ID, tag and
// injection cycle shifted, and the spin encoding relative to the
// shifted tag base is unchanged. An odd span turns the flight wheel.
func TestFastForwardShiftsLivePackets(t *testing.T) {
	const span, ids, tagShift = 7, 5, 3 << 6
	for _, topo := range []string{"mesh", "express"} {
		g := geom.NewGrid(6, 6)
		build := func() *Sim {
			tp, err := NewTopology(topo, g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSimTopology(fault.NewMap(g), DefaultSimConfig(), tp)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for c := 0; c < 6; c++ {
				for i := 0; i < 8; i++ {
					src, dst := g.Coord(rng.Intn(g.Size())), g.Coord(rng.Intn(g.Size()))
					s.Inject(Network(rng.Intn(2)), src, dst, Request, uint32(rng.Intn(1<<20))<<6, rng.Uint64())
				}
				s.Step()
			}
			return s
		}
		a, b := build(), build()
		before := a.AppendSpinState(nil, 1<<6)
		if a.Drained() || a.nets[0].flightCount()+a.nets[1].flightCount() == 0 {
			t.Fatalf("%s: want packets queued and in flight", topo)
		}
		st := b.Stats()
		st.Injected += ids
		b.FastForward(span, tagShift, st)
		if b.Cycle() != a.Cycle()+span || b.Stats() != st {
			t.Fatalf("%s: cycle %d stats %+v after the skip", topo, b.Cycle(), b.Stats())
		}
		if after := b.AppendSpinState(nil, 1<<6+tagShift); !slices.Equal(before, after) {
			t.Errorf("%s: spin encoding changed across the skip", topo)
		}
		da, db := recordDeliveries(a, false), recordDeliveries(b, false)
		for _, s := range []*Sim{a, b} {
			if err := s.RunUntilDrained(1000); err != nil {
				t.Fatal(err)
			}
		}
		if len(*da) != len(*db) || len(*da) == 0 {
			t.Fatalf("%s: delivered %d and %d packets", topo, len(*da), len(*db))
		}
		for i, p := range *da {
			p.ID += ids
			p.Tag += tagShift
			p.InjectedAt += span
			p.DeliveredAt += span
			if q := (*db)[i]; q != p {
				t.Errorf("%s: delivery %d = %+v, want %+v", topo, i, q, p)
			}
		}
		ia, _ := a.Inject(XY, g.Coord(0), g.Coord(1), Request, 0, 0)
		ib, _ := b.Inject(XY, g.Coord(0), g.Coord(1), Request, 0, 0)
		if ib != ia+ids {
			t.Errorf("%s: next ID %d after the skip, want %d", topo, ib, ia+ids)
		}
	}
}
