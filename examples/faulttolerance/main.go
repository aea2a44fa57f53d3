// Fault-tolerance sweep: the design decisions the paper motivates with
// "fault tolerance and resiliency was one of the primary drivers"
// exercised together. For growing fault counts on the 32x32 wafer this
// example measures:
//
//   - clock delivery (Section IV): healthy tiles that still receive the
//     forwarded clock;
//   - network connectivity (Section VI / Fig. 6): pairs disconnected
//     with one vs. two DoR networks;
//   - kernel detours (Section VI): how many residual pairs the
//     intermediate-tile workaround repairs.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"waferscale/internal/clock"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faulttolerance:", err)
		os.Exit(1)
	}
}

func run() error {
	grid := geom.NewGrid(32, 32)
	fmt.Println("fault sweep on the 32x32 wafer (seeded random fault maps)")
	fmt.Printf("%7s %14s %14s %14s %14s\n",
		"faults", "clock-starved", "1-net disc.%", "2-net disc.%", "after detours")

	// The detour analysis decides all ~1M pairs via the kernel, so it
	// runs on a 16x16 sub-array to stay quick; the clock and Fig. 6
	// numbers use the full wafer.
	detourGrid := geom.NewGrid(16, 16)

	for _, faults := range []int{1, 2, 5, 10, 20, 40} {
		rng := rand.New(rand.NewSource(int64(faults) * 97))
		fm := fault.Random(grid, faults, rng)

		// Clock: pick any healthy edge generator.
		setup := clock.DefaultSetup(grid)
		if fm.Faulty(setup.Generators[0]) {
			for _, c := range grid.EdgeCoords() {
				if fm.Healthy(c) {
					setup.Generators = []geom.Coord{c}
					break
				}
			}
		}
		clkRep, err := clock.AnalyzeResiliency(fm, setup)
		if err != nil {
			return err
		}

		st := noc.NewTopoAnalyzer(noc.MeshTopology(grid), fm).AllPairs()

		dfm := fault.Random(detourGrid, faults, rand.New(rand.NewSource(int64(faults)*97)))
		k := noc.NewKernel(noc.MeshTopology(detourGrid), dfm)
		_, _, unreachable := k.PlanAll()
		healthy := dfm.HealthyCount()
		pairs := healthy * (healthy - 1)
		residualPct := 100 * float64(unreachable) / float64(pairs)

		fmt.Printf("%7d %14d %13.2f%% %13.3f%% %13.4f%%\n",
			faults, len(clkRep.UnreachedTiles), st.PctSingle(), st.PctDual(), residualPct)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - clock-starved counts healthy tiles walled off from every edge path;")
	fmt.Println("    the forwarding scheme reaches everything else (Fig. 4).")
	fmt.Println("  - the two-network column reproduces Fig. 6's collapse of disconnections;")
	fmt.Println("  - kernel detours then repair every pair that is still 4-connected,")
	fmt.Println("    so the residual column counts only truly partitioned tiles.")
	return nil
}
