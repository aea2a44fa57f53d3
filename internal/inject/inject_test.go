package inject

import (
	"strings"
	"testing"

	"waferscale/internal/geom"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSchedule().
		KillTileAt(500, geom.C(1, 1)).
		Add(Event{Cycle: 10, Kind: BitError, Tile: geom.C(0, 0), Mask: 0xFF}).
		KillTileAt(10, geom.C(2, 2)) // same cycle: insertion order kept
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("len = %d", len(ev))
	}
	if ev[0].Kind != BitError || ev[1].Kind != KillTile || ev[1].Tile != (geom.C(2, 2)) {
		t.Errorf("stable sort violated: %v", ev)
	}
	if ev[2].Cycle != 500 {
		t.Errorf("events not sorted: %v", ev)
	}
}

func TestScheduleValidate(t *testing.T) {
	grid := geom.NewGrid(4, 4)
	if err := NewSchedule().KillTileAt(-1, geom.C(0, 0)).Validate(grid); err == nil {
		t.Error("negative cycle should fail validation")
	}
	if err := NewSchedule().KillTileAt(5, geom.C(9, 9)).Validate(grid); err == nil {
		t.Error("out-of-grid tile should fail validation")
	}
	if err := NewSchedule().Add(Event{Cycle: 1, Kind: LinkDown, Tile: geom.C(0, 0), Dir: geom.Dir(7)}).Validate(grid); err == nil {
		t.Error("invalid direction should fail validation")
	}
	s := NewSchedule().
		FlapLink(geom.C(1, 1), geom.East, 10, 20).
		Add(Event{Cycle: 30, Kind: BitError, Tile: geom.C(2, 2), Mask: 1})
	if err := s.Validate(grid); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	grid := geom.NewGrid(8, 8)
	a := Random(grid, 5, [2]int64{100, 1000}, 42, nil)
	b := Random(grid, 5, [2]int64{100, 1000}, 42, nil)
	if a.String() != b.String() {
		t.Errorf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Random(grid, 5, [2]int64{100, 1000}, 43, nil)
	if a.String() == c.String() {
		t.Error("different seeds produced identical schedules")
	}
	if a.Len() != 5 {
		t.Errorf("Len = %d, want 5", a.Len())
	}
	for _, e := range a.Events() {
		if e.Cycle < 100 || e.Cycle > 1000 {
			t.Errorf("event %v outside window", e)
		}
		if e.Kind != KillTile {
			t.Errorf("Random should only schedule kills, got %v", e)
		}
	}
}

func TestRandomAvoid(t *testing.T) {
	grid := geom.NewGrid(4, 4)
	avoid := func(c geom.Coord) bool { return c.Y == 0 }
	s := Random(grid, 12, [2]int64{0, 0}, 7, avoid)
	for _, e := range s.Events() {
		if e.Tile.Y == 0 {
			t.Errorf("avoided tile %v was killed", e.Tile)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("over-subscribed kills should panic like fault.Random")
		}
	}()
	Random(grid, 13, [2]int64{0, 0}, 7, avoid) // only 12 eligible
}

func TestEventString(t *testing.T) {
	for _, e := range []Event{
		{Cycle: 1, Kind: KillTile, Tile: geom.C(1, 2)},
		{Cycle: 2, Kind: LinkDown, Tile: geom.C(0, 0), Dir: geom.East},
		{Cycle: 3, Kind: BitError, Tile: geom.C(3, 3), Mask: 0xF0},
	} {
		s := e.String()
		if !strings.Contains(s, e.Kind.String()) {
			t.Errorf("String() %q lacks kind", s)
		}
	}
}
