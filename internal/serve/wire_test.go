package serve

import (
	"encoding/json"
	"reflect"
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
