package serve

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"waferscale/internal/core"
)

// TestChaosResultWireFormat pins the chaos job's result bytes. The disk
// store persists results in this form, so a renamed or re-tagged field
// would make every stored chaos result unreadable after an upgrade.
func TestChaosResultWireFormat(t *testing.T) {
	res := &ChaosResult{Points: []core.ChaosPoint{
		{Kills: 0, Trials: 4, Completed: 4, Verified: 4, MeanCycles: 21000},
		{Kills: 2, Trials: 4, Completed: 3, Verified: 2, MeanRetries: 1.5, MeanRelays: 2.25, MeanLostKiB: 0.5, MeanCycles: 12345.75},
	}}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"points":[` +
		`{"Kills":0,"Trials":4,"Completed":4,"Verified":4,"MeanRetries":0,"MeanRelays":0,"MeanLostKiB":0,"MeanCycles":21000},` +
		`{"Kills":2,"Trials":4,"Completed":3,"Verified":2,"MeanRetries":1.5,"MeanRelays":2.25,"MeanLostKiB":0.5,"MeanCycles":12345.75}]}`
	if string(got) != want {
		t.Fatalf("chaos result wire format changed:\n got %s\nwant %s", got, want)
	}
	var back ChaosResult
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Fatalf("stored chaos result does not decode to the original:\n got %+v\nwant %+v", back, *res)
	}
}

// defaultSpecsText renders, for every kind, the canonical JSON and the
// cache key of the spec that names only the kind.
func defaultSpecsText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, kind := range Kinds() {
		s := Spec{Kind: kind}
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		js, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(kind + " " + s.CacheKey() + "\n" + string(js) + "\n")
	}
	return b.String()
}

// TestDefaultSpecsGolden pins the defaults Normalize fills in: a
// changed default moves every cache key of that kind, orphaning the
// stored results of every client that relied on it.
func TestDefaultSpecsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default_specs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := defaultSpecsText(t); got != string(want) {
		t.Errorf("normalized default specs differ from testdata/default_specs.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
