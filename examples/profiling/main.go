// Profiling the unified shared memory: the waferscale system is NUMA —
// a core pays ~1 cycle for private SRAM, a few cycles for its own
// tile's banks, and a network round trip for remote tiles. This
// example runs the same histogram workload twice, once with the
// workers packed next to the data and once scattered across the wafer,
// and prints the machine profiles side by side.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := arch.DefaultConfig()
	cfg.CoresPerTile = 4
	cfg, err := cfg.Square(6)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(8))
	data := make([]int32, 800)
	for i := range data {
		data[i] = int32(rng.Intn(16))
	}

	// The data and bins live at the base of the global space — i.e. on
	// tile (0,0) and its row-major successors.
	near := []sim.WorkerRef{
		{Tile: geom.C(0, 0), Core: 0}, {Tile: geom.C(0, 0), Core: 1},
		{Tile: geom.C(1, 0), Core: 0}, {Tile: geom.C(1, 0), Core: 1},
		{Tile: geom.C(0, 1), Core: 0}, {Tile: geom.C(0, 1), Core: 1},
		{Tile: geom.C(1, 1), Core: 0}, {Tile: geom.C(1, 1), Core: 1},
	}
	far := []sim.WorkerRef{
		{Tile: geom.C(5, 5), Core: 0}, {Tile: geom.C(5, 5), Core: 1},
		{Tile: geom.C(4, 5), Core: 0}, {Tile: geom.C(4, 5), Core: 1},
		{Tile: geom.C(5, 4), Core: 0}, {Tile: geom.C(5, 4), Core: 1},
		{Tile: geom.C(4, 4), Core: 0}, {Tile: geom.C(4, 4), Core: 1},
	}

	for _, placement := range []struct {
		name    string
		workers []sim.WorkerRef
	}{
		{"workers NEAR the data (tiles around (0,0))", near},
		{"workers FAR from the data (tiles around (5,5))", far},
	} {
		m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
		if err != nil {
			return err
		}
		bins, res, err := sim.RunHistogram(m, data, 16, placement.workers, 50_000_000)
		if err != nil {
			return err
		}
		total := int32(0)
		for _, b := range bins {
			total += b
		}
		fmt.Printf("=== %s ===\n", placement.name)
		fmt.Printf("result: %d samples binned (exact), %d cycles, %.1f cyc mean remote latency\n",
			total, res.Cycles, res.RemoteLatency)
		m.WriteProfile(os.Stdout, 4)
		fmt.Println()
	}
	fmt.Println("the far placement pays more cycles per remote access — the NUMA cost")
	fmt.Println("the hierarchical tile architecture trades for its unified address space.")
	return nil
}
