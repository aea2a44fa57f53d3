package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"waferscale/internal/noc"
	"waferscale/internal/workload"
)

// Workload topology exploration: the ExploreTopologiesCtx idea pointed at
// an operator graph. Instead of ranking interconnects by synthetic
// saturation and disconnection metrics, each (topology, placement)
// combination runs the graph end to end on a real machine and is
// ranked by measured completion cycles — the number an LLM-era tenant
// actually cares about. Outputs are verified against the pure-Go
// reference executors, so a faster point can never be a wrong one.

// WorkloadTopoPoint is one evaluated (topology, placement) combination.
type WorkloadTopoPoint struct {
	Topology  string `json:"topology"`
	Placement string `json:"placement"`

	Cycles             int64   `json:"cycles"`             // end-to-end completion
	CriticalPathCycles int64   `json:"criticalPathCycles"` // graph dependency-chain bound
	Instructions       int64   `json:"instructions"`
	RemoteOps          int64   `json:"remoteOps"`
	AvgRemoteLatency   float64 `json:"avgRemoteLatency"`
	Verified           bool    `json:"verified"` // outputs matched the host reference
}

// WorkloadTopoRun is the result of ExploreWorkloadTopologiesCtx:
// every combination, ranked fastest-first.
type WorkloadTopoRun struct {
	Graph  string              `json:"graph"`
	Side   int                 `json:"side"`
	Points []WorkloadTopoPoint `json:"points"`
}

// WorkloadTopoOpts configures the sweep.
type WorkloadTopoOpts struct {
	Side       int      // machine array side (0 -> 8; vertical needs even)
	Topologies []string // empty -> every registered topology
	Workers    int      // host pool for concurrent combinations (0 -> GOMAXPROCS)
	// WorkersPerOp / OpBudget mirror workload.Options.
	WorkersPerOp int
	OpBudget     int64
}

type workloadCombo struct{ topo, place string }

func (c workloadCombo) String() string { return "workload sweep " + c.topo + "/" + c.place }

// ExploreWorkloadTopologiesCtx evaluates the topology x placement grid
// for one graph. Combinations run concurrently on independent machines;
// each machine's execution is single-threaded and seeded, so the
// results are bit-identical at any worker count.
func ExploreWorkloadTopologiesCtx(ctx context.Context, g *workload.Graph, opts WorkloadTopoOpts) (*WorkloadTopoRun, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	side := opts.Side
	if side <= 0 {
		side = 8
	}
	topos := opts.Topologies
	if len(topos) == 0 {
		topos = noc.TopologyNames()
	}
	want, err := workload.Reference(g)
	if err != nil {
		return nil, err
	}

	var combos []workloadCombo
	for _, tp := range topos {
		if tp == noc.TopoVertical && side%2 != 0 {
			return nil, fmt.Errorf("core: workload sweep side %d is odd; vertical needs an even side", side)
		}
		for _, pl := range workload.PlacementNames() {
			combos = append(combos, workloadCombo{tp, pl})
		}
	}

	pts, err := evalAll(ctx, combos, opts.Workers, nil, func(c workloadCombo) (WorkloadTopoPoint, error) {
		m, err := workload.BuildMachine(side, c.topo)
		if err != nil {
			return WorkloadTopoPoint{}, err
		}
		outputs, rep, err := workload.RunCtx(ctx, m, g, workload.Options{
			Placement:    c.place,
			WorkersPerOp: opts.WorkersPerOp,
			OpBudget:     opts.OpBudget,
		})
		if err != nil {
			return WorkloadTopoPoint{}, err
		}
		return WorkloadTopoPoint{
			Topology:           c.topo,
			Placement:          c.place,
			Cycles:             rep.TotalCycles,
			CriticalPathCycles: rep.CriticalPathCycles,
			Instructions:       rep.Instructions,
			RemoteOps:          rep.RemoteOps,
			AvgRemoteLatency:   m.AvgRemoteLatency(),
			Verified:           rep.Completed && len(workload.CompareOutputs(outputs, want)) == 0,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Rank fastest-first; unverified points sink to the bottom no
	// matter how fast they claim to be.
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Verified != pts[j].Verified {
			return pts[i].Verified
		}
		return pts[i].Cycles < pts[j].Cycles
	})
	return &WorkloadTopoRun{Graph: g.Name, Side: side, Points: pts}, nil
}

// FormatWorkloadTopoSweep renders the ranked sweep as a text table.
func FormatWorkloadTopoSweep(run *WorkloadTopoRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %q on %dx%d, ranked by end-to-end cycles:\n", run.Graph, run.Side, run.Side)
	fmt.Fprintf(&b, "%-10s  %-10s  %10s  %10s  %9s  %8s  %8s\n",
		"topology", "placement", "cycles", "critpath", "remoteOps", "avgLat", "verified")
	for _, p := range run.Points {
		fmt.Fprintf(&b, "%-10s  %-10s  %10d  %10d  %9d  %8.2f  %8v\n",
			p.Topology, p.Placement, p.Cycles, p.CriticalPathCycles, p.RemoteOps, p.AvgRemoteLatency, p.Verified)
	}
	return b.String()
}
