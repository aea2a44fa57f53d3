// Quickstart: build the paper's 2048-chiplet, 14336-core waferscale
// processor design point and run every analysis — Table I, the Fig. 2
// power droop, Fig. 4 clock resiliency, Section V bonding yield, the
// Fig. 6 network Monte Carlo, the Section VII test timing and the
// Section VIII substrate checks — against a wafer with a few faulty
// tiles.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"waferscale/internal/core"
	"waferscale/internal/fault"
)

func main() {
	design := core.NewDesign()
	if err := design.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	// Even with dual-pillar bonding a 2048-chiplet wafer can lose a
	// chiplet or two; analyze against a pessimistic 5-fault map.
	fm := fault.Random(design.Cfg.Grid(), 5, rand.New(rand.NewSource(2021)))
	fmt.Printf("fault map: %d faulty tiles at %v\n\n", fm.Count(), fm.FaultyCoords())

	if err := design.WriteFullReport(context.Background(), os.Stdout, fm, 8, 2021, nil); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
