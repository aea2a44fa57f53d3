package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// fig7-wafer: the paper's Fig. 7 request/response traffic on the full
// fault-free 32x32 wafer. Each of fig7Cycles cycles injects
// fig7PerCycle uniform-random requests, alternating networks, and
// every delivered request is answered on the complement network. The
// load is high enough that switch allocation contends.
const (
	fig7Side     = 32
	fig7Cycles   = 256
	fig7PerCycle = 96
	fig7Shards   = 2
	fig7Drain    = 100_000
)

type fig7 struct {
	fm    *fault.Map
	pairs []geom.Coord // src, dst per request, in injection order
}

func setupFig7(seed int64) (instance, error) {
	grid := geom.NewGrid(fig7Side, fig7Side)
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]geom.Coord, 0, 2*fig7Cycles*fig7PerCycle)
	for i := 0; i < fig7Cycles*fig7PerCycle; i++ {
		pairs = append(pairs,
			geom.C(rng.Intn(fig7Side), rng.Intn(fig7Side)),
			geom.C(rng.Intn(fig7Side), rng.Intn(fig7Side)))
	}
	return &fig7{fm: fault.NewMap(grid), pairs: pairs}, nil
}

// fig7Packet is an injection the NoC refused with backpressure; the
// traffic generator retries it on the next cycle, as a source tile
// would.
type fig7Packet struct {
	net      noc.Network
	src, dst geom.Coord
	kind     noc.Kind
	tag      uint32
}

func (f *fig7) op(root *span, _ int) (map[string]float64, error) {
	sp := root.child("noc.new_sim")
	s, err := noc.NewSim(f.fm, noc.DefaultSimConfig())
	sp.end()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.Shards, s.Workers = fig7Shards, fig7Shards

	var pending []fig7Packet
	refused := 0
	// try injects p, timing the call into agg; a refused packet waits in
	// pending for the next retry.
	try := func(p fig7Packet, agg *span) error {
		t0 := agg.mark()
		_, err := s.Inject(p.net, p.src, p.dst, p.kind, p.tag, 0)
		agg.add(t0)
		if errors.Is(err, noc.ErrBackpressure) {
			refused++
			pending = append(pending, p)
			return nil
		}
		return err
	}
	retry := func(agg *span) error {
		old := pending
		pending = nil
		for _, p := range old {
			if err := try(p, agg); err != nil {
				return err
			}
		}
		return nil
	}
	// Responses are injected from OnDeliver, inside Step or
	// RunUntilDrained; respond is the aggregate nested in whichever of
	// the two is running.
	inject, step := root.agg("noc.inject"), root.agg("noc.step")
	respond := step.agg("noc.inject")
	var deliverErr error
	s.OnDeliver = func(p noc.Packet) {
		if p.Kind != noc.Request {
			return
		}
		if err := try(fig7Packet{p.Net.Complement(), p.Dst, p.Src, noc.Response, p.Tag}, respond); err != nil && deliverErr == nil {
			deliverErr = err
		}
	}
	for c, k := 0, 0; c < fig7Cycles && err == nil; c++ {
		err = retry(inject)
		for j := 0; j < fig7PerCycle && err == nil; j, k = j+1, k+2 {
			err = try(fig7Packet{noc.Network(j % 2), f.pairs[k], f.pairs[k+1], noc.Request, uint32(k / 2)}, inject)
		}
		t0 := step.mark()
		s.Step()
		step.add(t0)
	}
	drain := root.child("noc.drain")
	respond = drain.agg("noc.inject")
	for err == nil {
		err = s.RunUntilDrained(fig7Drain)
		if len(pending) == 0 {
			break
		}
		if err == nil {
			err = retry(respond)
			s.Step()
		}
	}
	drain.end()
	if err == nil {
		err = deliverErr
	}
	if err != nil {
		return nil, err
	}
	st := s.Stats()
	if want := 2 * fig7Cycles * fig7PerCycle; st.Delivered != want || st.Dropped != 0 {
		return nil, fmt.Errorf("delivered %d of %d packets, dropped %d", st.Delivered, want, st.Dropped)
	}
	guest := map[string]float64{
		"guest_cycles":              float64(s.Cycle()),
		"guest_latency_cyc":         st.AvgLatency(),
		"noc.guest_hops":            float64(st.TotalHops),
		"noc.guest_max_latency_cyc": float64(st.MaxLatency),
		"noc.guest_delivered":       float64(st.Delivered),
		"noc.inject_refused":        float64(refused),
	}
	sp = root.child("noc.close")
	s.Close()
	sp.end()
	return guest, nil
}

func (f *fig7) layers(ts traceSummary, guest map[string]float64) map[string]float64 {
	hostNs := 0.0
	for _, n := range []string{"noc.new_sim", "noc.inject", "noc.step", "noc.drain", "noc.close"} {
		hostNs += ts.perOp(n, time.Nanosecond)
	}
	return map[string]float64{
		"noc.new_sim_ms":      ts.perOp("noc.new_sim", time.Millisecond),
		"noc.inject_ns":       ts.perCall("noc.inject", time.Nanosecond),
		"noc.step_us":         ts.perCall("noc.step", time.Microsecond),
		"noc.drain_ms":        ts.perOp("noc.drain", time.Millisecond),
		"noc.close_us":        ts.perOp("noc.close", time.Microsecond),
		"noc.host_ns_per_hop": hostNs / guest["noc.guest_hops"],
	}
}

func (f *fig7) close() {}
