// Graph workloads on the simulated waferscale machine: this is the
// reproduction of the paper's validation ("We were successfully able to
// run various workloads including graph applications such as
// breadth-first search (BFS), single-source shortest path (SSSP), etc.
// on this system" — Section II, done there on a reduced-size FPGA
// emulation).
//
// The example builds a 4x4-tile machine with one faulty tile, lays a
// random graph out in the unified shared memory, runs the WS-ISA
// relaxation kernel on cores spread across the wafer, and checks the
// result against a host-side reference.
package main

import (
	"fmt"
	"os"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphbfs:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := arch.DefaultConfig()
	cfg.CoresPerTile = 4
	cfg, err := cfg.Square(4)
	if err != nil {
		return err
	}

	// One tile died in assembly; the kernel routes around it.
	fm := fault.NewMap(cfg.Grid())
	fm.MarkFaulty(geom.C(2, 1))

	g := sim.RandomGraph(96, 280, 9, 7)
	fmt.Printf("machine: %dx%d tiles, %d cores, tile (2,1) faulty\n",
		cfg.TilesX, cfg.TilesY, cfg.TotalCores())
	fmt.Printf("graph:   %d vertices, %d edges\n\n", g.N, g.M())

	for _, wl := range []struct {
		name string
		g    *sim.Graph
	}{
		{"BFS ", g.Unweighted()},
		{"SSSP", g},
	} {
		m, err := sim.NewMachine(cfg, fm)
		if err != nil {
			return err
		}
		workers := sim.AllWorkers(m, 12)
		res, err := sim.RunSSSP(m, wl.g, 0, workers, 50_000_000)
		if err != nil {
			return err
		}
		want := wl.g.ReferenceSSSP(0)
		bad := 0
		for v := range want {
			if res.Dist[v] != want[v] {
				bad++
			}
		}
		status := "OK"
		if bad > 0 {
			status = fmt.Sprintf("%d MISMATCHES", bad)
		}
		fmt.Printf("%s  %9d cycles  %9d instret  %7d remote ops  %5.1f cyc/remote  verify: %s\n",
			wl.name, res.Cycles, res.Instructions, res.RemoteOps, res.RemoteLatency, status)
		if bad > 0 {
			return fmt.Errorf("%s diverged from host reference", wl.name)
		}
	}

	fmt.Println("\nboth kernels ran as WS-ISA programs over the dual-DoR mesh and verified.")
	return nil
}
