// Package inject provides deterministic, seeded runtime fault schedules
// for the live simulated machine: tile deaths at a given cycle, link
// flap windows, and transient bit errors on in-network payloads.
//
// The paper analyzes faults statically (the Fig. 6 Monte Carlo over
// frozen fault maps); this package supplies the runtime half of that
// story. A Schedule is a sorted list of timed events that a consumer
// (sim.Machine) applies between cycles to its mutable fault view, so a
// workload can be observed surviving — or gracefully degrading under —
// faults that arrive mid-run. Everything is seeded and replayable: the
// same schedule against the same machine produces the same outcome.
package inject

import (
	"fmt"
	"math/rand"
	"sort"

	"waferscale/internal/geom"
)

// Kind enumerates the runtime fault event types.
type Kind int

// The event kinds.
const (
	// KillTile permanently removes a tile between cycles: its routers
	// vanish from both networks, its cores die, and its share of the
	// global memory is lost (remapped to the surviving banks).
	KillTile Kind = iota
	// LinkDown takes one inter-chiplet link out of service; packets
	// queued behind it wait (injection backpressure), they are not lost.
	LinkDown
	// LinkUp restores a link taken down by LinkDown.
	LinkUp
	// BitError XORs a mask into the payload of one packet buffered at
	// the event's tile — a transient remote-read/response corruption.
	// If no packet is buffered there the error hits an idle link and is
	// harmless.
	BitError
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KillTile:
		return "kill-tile"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case BitError:
		return "bit-error"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timed fault. Events fire when the consumer's cycle
// counter reaches Cycle (applied between simulation cycles).
type Event struct {
	Cycle int64
	Kind  Kind
	Tile  geom.Coord
	// Dir is the link direction for LinkDown/LinkUp.
	Dir geom.Dir
	// Mask is the XOR payload mask for BitError.
	Mask uint64
}

// String renders the event.
func (e Event) String() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("@%d %s %v.%v", e.Cycle, e.Kind, e.Tile, e.Dir)
	case BitError:
		return fmt.Sprintf("@%d %s %v mask=%#x", e.Cycle, e.Kind, e.Tile, e.Mask)
	}
	return fmt.Sprintf("@%d %s %v", e.Cycle, e.Kind, e.Tile)
}

// Schedule is an ordered fault schedule. The zero value is an empty
// schedule ready for use; builders return the schedule for chaining.
// A schedule must not be mutated after it has been handed to a machine
// (the machine keeps a cursor into the sorted event list); build one
// schedule per run.
type Schedule struct {
	events []Event
	sorted bool
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Add appends an arbitrary event.
func (s *Schedule) Add(e Event) *Schedule {
	s.events = append(s.events, e)
	s.sorted = false
	return s
}

// KillTileAt schedules a tile death.
func (s *Schedule) KillTileAt(cycle int64, c geom.Coord) *Schedule {
	return s.Add(Event{Cycle: cycle, Kind: KillTile, Tile: c})
}

// FlapLink schedules a link outage window [from, to): the link at
// (tile, dir) goes down at cycle from and returns at cycle to.
func (s *Schedule) FlapLink(c geom.Coord, d geom.Dir, from, to int64) *Schedule {
	s.Add(Event{Cycle: from, Kind: LinkDown, Tile: c, Dir: d})
	return s.Add(Event{Cycle: to, Kind: LinkUp, Tile: c, Dir: d})
}

// Len returns the number of scheduled events.
func (s *Schedule) Len() int { return len(s.events) }

// Events returns the events sorted by cycle (stable: events at the same
// cycle keep insertion order). The returned slice is the schedule's
// internal storage — callers must treat it as read-only.
func (s *Schedule) Events() []Event {
	if !s.sorted {
		sort.SliceStable(s.events, func(i, j int) bool {
			return s.events[i].Cycle < s.events[j].Cycle
		})
		s.sorted = true
	}
	return s.events
}

// Validate checks every event against the grid the schedule will run
// on: coordinates must be in-grid and cycles non-negative.
func (s *Schedule) Validate(grid geom.Grid) error {
	for _, e := range s.events {
		if e.Cycle < 0 {
			return fmt.Errorf("inject: event %v has negative cycle", e)
		}
		if !grid.In(e.Tile) {
			return fmt.Errorf("inject: event %v outside %v array", e, grid)
		}
		if e.Kind == LinkDown || e.Kind == LinkUp {
			if e.Dir < 0 || int(e.Dir) >= geom.NumDirs {
				return fmt.Errorf("inject: event %v has invalid direction", e)
			}
		}
	}
	return nil
}

// String renders the schedule, one event per line in firing order.
func (s *Schedule) String() string {
	out := ""
	for _, e := range s.Events() {
		out += e.String() + "\n"
	}
	return out
}

// Random builds a deterministic schedule of kills distinct tile deaths
// with cycles drawn uniformly from [window[0], window[1]]. Tiles for
// which avoid returns true are never killed (pass nil to allow all);
// it panics if fewer than kills tiles remain, mirroring fault.Random.
func Random(grid geom.Grid, kills int, window [2]int64, seed int64, avoid func(geom.Coord) bool) *Schedule {
	if window[1] < window[0] {
		window[0], window[1] = window[1], window[0]
	}
	var pool []geom.Coord
	grid.All(func(c geom.Coord) {
		if avoid == nil || !avoid(c) {
			pool = append(pool, c)
		}
	})
	if kills < 0 || kills > len(pool) {
		panic(fmt.Sprintf("inject: cannot schedule %d kills over %d eligible tiles", kills, len(pool)))
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewSchedule()
	span := window[1] - window[0] + 1
	for _, idx := range rng.Perm(len(pool))[:kills] {
		cycle := window[0] + rng.Int63n(span)
		s.KillTileAt(cycle, pool[idx])
	}
	s.Events() // normalize order so replay is independent of Perm draw order
	return s
}
