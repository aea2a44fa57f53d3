package analytical

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"waferscale/internal/noc"
)

// goldenRates are the serve daemon's default throughput sweep rates.
var goldenRates = []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}

// TestModelGolden pins every number the model's production callers
// read, bit for bit (%v prints the shortest round-tripping form), on
// both fig7Maps fault maps and every shipped topology: saturation,
// reachability and the throughput curve at the serve default rates.
func TestModelGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "model.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := modelGolden(t); got != string(want) {
		t.Errorf("model.golden differs from the model:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func modelGolden(t *testing.T) string {
	maps := fig7Maps(t)
	names := make([]string, 0, len(maps))
	for name := range maps {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, mapName := range names {
		fm := maps[mapName]
		for _, topo := range noc.TopologyNames() {
			m := mustModel(t, topo, fm)
			fmt.Fprintf(&b, "%s %s sat %v reach %v\n", mapName, topo, m.SaturationRate(), m.ReachableFraction())
			pts, err := m.ThroughputCurve(context.Background(), goldenRates)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				fmt.Fprintf(&b, "  curve %v\n", p)
			}
		}
	}
	return b.String()
}
