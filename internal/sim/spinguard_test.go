package sim

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// spinNotExtrapolated names every numeric field of Core, Machine,
// noc.SimStats and DegradationReport that a spin fast-forward does not
// extrapolate, and why. Every other numeric field must be extrapolated
// (spinCounters, advanceNetStats), so a counter added later is either
// extrapolated or named here.
var spinNotExtrapolated = map[string]string{
	// Moved by the skipped cycles or tags (skipPeriods).
	"Machine.cycle":     "advanced by the skipped cycles",
	"Machine.tagSeq":    "advanced by the skipped periods' tags",
	"Core.stallUntil":   "shifted by the skipped cycles while stalled",
	"Core.rem.tag":      "shifted by the skipped tags while waiting",
	"Core.rem.issuedAt": "shifted by the skipped cycles while waiting",
	"Core.rem.deadline": "shifted by the skipped cycles while waiting",

	// State that recurs: equal one period apart, which the encoding checks.
	"Core.Regs":         "recurs",
	"Core.PC":           "recurs",
	"Core.state":        "recurs",
	"Core.loadReg":      "recurs",
	"Core.loadVal":      "recurs",
	"Core.rem.net":      "recurs",
	"Core.rem.payload":  "recurs",
	"Core.rem.reg":      "recurs",
	"Core.rem.attempts": "recurs",

	// Constant during a spin.
	"Core.idx":                          "identity",
	"Machine.RemoteTimeout":             "configuration",
	"Machine.RemoteRetries":             "configuration",
	"Machine.running":                   "a skipped period stops no core",
	"Machine.schedAt":                   "a spin begins after the last fault event",
	"Machine.lastWrite":                 "a spin changes no memory",
	"SimStats.MaxLatency":               "a maximum over periods that repeat",
	"SimStats.DroppedQueued":            "moves only when a router is killed",
	"SimStats.RoutersKilled":            "moves only when a router is killed",
	"SimStats.Timeouts":                 "a skipped period retries no remote op",
	"SimStats.BitErrors":                "moves only on a fault event",
	"DegradationReport.RemappedWindows": "moves only when a tile is killed",
	"DegradationReport.LostSharedBytes": "moves only when a tile is killed",
	"DegradationReport.RetriedOps":      "a skipped period retries no remote op",
	"DegradationReport.TimedOutOps":     "a skipped period retries no remote op",
	"DegradationReport.ExhaustedOps":    "a skipped period retries no remote op",
	"DegradationReport.LinkFlaps":       "moves only on a fault event",
	"DegradationReport.BitErrors":       "moves only on a fault event",
}

// numericFields lists the numeric fields of struct type typ (numbers
// and arrays of numbers, through unnamed nested structs) as
// "Type.path", with their offsets in typ.
func numericFields(typ reflect.Type) map[string]uintptr {
	out := map[string]uintptr{}
	var walk func(t reflect.Type, prefix string, base uintptr)
	walk = func(t reflect.Type, prefix string, base uintptr) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			ft := f.Type
			if ft.Kind() == reflect.Array {
				ft = ft.Elem()
			}
			switch {
			case ft.Kind() >= reflect.Int && ft.Kind() <= reflect.Float64:
				out[prefix+f.Name] = base + f.Offset
			case ft.Kind() == reflect.Struct && ft.Name() == "":
				walk(ft, prefix+f.Name+".", base+f.Offset)
			}
		}
	}
	walk(typ, typ.Name()+".", 0)
	return out
}

// TestSpinCountersCovered: every numeric field of Core, Machine,
// noc.SimStats and DegradationReport is either extrapolated by a spin
// fast-forward or named in spinNotExtrapolated, never both. The
// extrapolated fields are found by running the production code, not
// listed: spinCounters' targets by address, advanceNetStats' by the
// fields it moves.
func TestSpinCountersCovered(t *testing.T) {
	m := newMachine(t, smallConfig(), nil)
	if err := m.LoadProgram(geom.C(1, 1), 2, mustAssemble(t, "halt")); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(geom.C(1, 1)).Cores[2]
	owners := []struct {
		base uintptr
		typ  reflect.Type
	}{
		{uintptr(unsafe.Pointer(m)), reflect.TypeOf(*m)},
		{uintptr(unsafe.Pointer(&m.degr)), reflect.TypeOf(m.degr)},
		{uintptr(unsafe.Pointer(c)), reflect.TypeOf(*c)},
	}
	extrapolated := map[string]bool{}
counters:
	for _, p := range m.spinCounters(nil) {
		addr := uintptr(unsafe.Pointer(p))
		for _, o := range owners {
			for name, off := range numericFields(o.typ) {
				if o.base+off == addr {
					extrapolated[name] = true
					continue counters
				}
			}
		}
		t.Errorf("spinCounters lists %#x, not a field of the machine, its report or a running core", addr)
	}

	// advanceNetStats extrapolates a field it moves: one period from 0
	// to 1, then two more.
	var now noc.SimStats
	nv := reflect.ValueOf(&now).Elem()
	for i := 0; i < nv.NumField(); i++ {
		nv.Field(i).SetInt(1)
	}
	next := reflect.ValueOf(advanceNetStats(now, noc.SimStats{}, 2))
	for i := 0; i < nv.NumField(); i++ {
		name := "SimStats." + nv.Type().Field(i).Name
		switch next.Field(i).Int() {
		case 3:
			extrapolated[name] = true
		case 1:
		default:
			t.Errorf("advanceNetStats moves %s from 1 to %d, want 3 or 1", name, next.Field(i).Int())
		}
	}

	fields := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Core{}), reflect.TypeOf(Machine{}),
		reflect.TypeOf(noc.SimStats{}), reflect.TypeOf(DegradationReport{})} {
		for name := range numericFields(typ) {
			fields[name] = true
		}
	}
	var names []string
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, named := spinNotExtrapolated[name]
		switch {
		case extrapolated[name] && named:
			t.Errorf("%s is extrapolated and also named as not extrapolated", name)
		case !extrapolated[name] && !named:
			t.Errorf("%s is neither extrapolated by a spin fast-forward nor named in spinNotExtrapolated", name)
		}
	}
	for name := range spinNotExtrapolated {
		if !fields[name] {
			t.Errorf("spinNotExtrapolated names %s, which is not a numeric field", name)
		}
	}
}
