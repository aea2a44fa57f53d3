package main

import (
	"fmt"
	"time"

	"waferscale/internal/workload"
)

// transformer: the built-in 17-operator transformer block compiled
// onto an 8x8 mesh machine with bandwidth-aware placement and run on
// the serial engine, so the NoC carries traffic the simulated cores
// generate themselves. The graph and its input data are fixed; the
// seed does not change this workload.
const (
	transformerSide      = 8
	transformerTopology  = "mesh"
	transformerPlacement = "bandwidth"
)

type transformer struct {
	g    *workload.Graph
	want map[string][]int32
}

func setupTransformer(int64) (instance, error) {
	g := workload.TransformerBlock(0, 0, 0)
	want, err := workload.Reference(g)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &transformer{g: g, want: want}, nil
}

func (t *transformer) op(root *span, _ int) (map[string]float64, error) {
	sp := root.child("sim.build_machine")
	m, err := workload.BuildMachine(transformerSide, transformerTopology)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("workload.run")
	outputs, rep, err := workload.Run(m, t.g, workload.Options{Placement: transformerPlacement})
	sp.end()
	avgRemote := m.AvgRemoteLatency()
	if err == nil && !rep.Completed {
		err = fmt.Errorf("graph failed at op %q", rep.FailedOp)
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	sp = root.child("workload.compare")
	bad := workload.CompareOutputs(outputs, t.want)
	sp.end()
	sp = root.child("sim.close")
	m.Close()
	sp.end()
	if len(bad) > 0 {
		return nil, fmt.Errorf("operators diverged from the host reference: %v", bad)
	}
	var maxBP float64
	for _, o := range rep.Ops {
		maxBP = max(maxBP, o.Backpressure)
	}
	return map[string]float64{
		"guest_cycles":                        float64(rep.TotalCycles),
		"workload.guest_instructions":         float64(rep.Instructions),
		"workload.guest_remote_ops":           float64(rep.RemoteOps),
		"workload.guest_critical_path_cycles": float64(rep.CriticalPathCycles),
		"workload.guest_max_backpressure":     maxBP,
		"sim.guest_avg_remote_latency_cyc":    avgRemote,
	}, nil
}

func (t *transformer) layers(ts traceSummary, guest map[string]float64) map[string]float64 {
	runNs := ts.perOp("workload.run", time.Nanosecond)
	return map[string]float64{
		"sim.build_machine_ms":             ts.perOp("sim.build_machine", time.Millisecond),
		"workload.run_ms":                  ts.perOp("workload.run", time.Millisecond),
		"workload.compare_us":              ts.perOp("workload.compare", time.Microsecond),
		"sim.close_us":                     ts.perOp("sim.close", time.Microsecond),
		"workload.host_ns_per_guest_cycle": runNs / guest["guest_cycles"],
		"workload.host_ns_per_instr":       runNs / guest["workload.guest_instructions"],
	}
}

func (t *transformer) close() {}
