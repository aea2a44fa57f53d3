package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are reduced
// to per-layer self times, and optionally written out as Chrome
// trace-event JSON, once the run ends. A nil *tracer and a nil *span
// are valid and record nothing, so workload code calls the same
// methods whether or not the run is traced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

// span is one timed call the harness made into a layer. An aggregate
// span stands for Count sequential calls of one name made on the
// parent's goroutine (per-cycle calls such as noc.Sim.Inject); its
// Total is their summed duration and Start/End bound the first and
// last call.
type span struct {
	t      *tracer
	ID     int
	Parent int // 0 for an op's root span
	Op     int
	Lane   int // client goroutine, for the trace viewer
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Total  int64
	Count  int
	Agg    bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s *span) *span {
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// root opens the span covering one whole op.
func (t *tracer) root(op, lane int, name string) *span {
	if t == nil {
		return nil
	}
	return t.add(&span{t: t, Op: op, Lane: lane, Name: name, Start: t.since(time.Now()), Count: 1})
}

// child opens a span nested in s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.add(&span{t: s.t, Parent: s.ID, Op: s.Op, Lane: s.Lane, Name: name, Start: s.t.since(time.Now()), Count: 1})
}

// childAt records a finished span nested in s from timestamps taken
// elsewhere: progress callbacks, or the server's job timestamps.
func (s *span) childAt(name string, start, end time.Time) *span {
	if s == nil {
		return nil
	}
	a, b := s.t.since(start), s.t.since(end)
	return s.t.add(&span{t: s.t, Parent: s.ID, Op: s.Op, Lane: s.Lane, Name: name, Start: a, End: b, Total: b - a, Count: 1})
}

// agg opens an aggregate span nested in s; feed it with add.
func (s *span) agg(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.add(&span{t: s.t, Parent: s.ID, Op: s.Op, Lane: s.Lane, Name: name, Start: -1, Agg: true})
}

// mark returns the start time of a call to fold into an aggregate
// span with add; it reads no clock when tracing is off.
func (s *span) mark() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// add folds one call, started at start and ending now, into an
// aggregate span.
func (s *span) add(start time.Time) {
	if s == nil {
		return
	}
	now := time.Now()
	a, b := s.t.since(start), s.t.since(now)
	if s.Start < 0 {
		s.Start = a
	}
	s.End = b
	s.Total += b - a
	s.Count++
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = s.t.since(time.Now())
	s.Total = s.End - s.Start
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover. Plain children can overlap one another
// (calls made from a pool of workers), so their coverage is the length
// of the union of their intervals, not the sum. Aggregate children are
// sequential calls on the parent's goroutine and cover their Total.
func selfTimes(spans []*span) map[int]int64 {
	kids := map[int][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		var covered int64
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			if c.Agg {
				covered += c.Total
			} else {
				iv = append(iv, [2]int64{c.Start, c.End})
			}
		}
		covered += unionLength(iv)
		self[s.ID] = max(0, s.Total-covered)
	}
	return self
}

func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	hi = -1 << 62
	for _, r := range iv {
		if r[0] > hi {
			total += r[1] - r[0]
			hi = r[1]
		} else if r[1] > hi {
			total += r[1] - hi
			hi = r[1]
		}
	}
	return total
}

// traceSummary is a run's spans reduced to totals per span name.
type traceSummary struct {
	ops   int
	self  map[string]int64 // summed self time, ns
	calls map[string]int   // summed call count
	// selfSumPct is the sum of every span's self time as a percentage
	// of the summed root (op) durations: 100 when children nest inside
	// their parents without overlap, more when a pool overlaps them.
	selfSumPct float64
}

func (t *tracer) summary() traceSummary {
	sum := traceSummary{self: map[string]int64{}, calls: map[string]int{}}
	if t == nil {
		return sum
	}
	self := selfTimes(t.spans)
	var allSelf, rootTotal int64
	for _, s := range t.spans {
		sum.self[s.Name] += self[s.ID]
		sum.calls[s.Name] += s.Count
		allSelf += self[s.ID]
		if s.Parent == 0 {
			sum.ops++
			rootTotal += s.Total
		}
	}
	if rootTotal > 0 {
		sum.selfSumPct = 100 * float64(allSelf) / float64(rootTotal)
	}
	return sum
}

// perOp is the mean self time of a span name per op, in unit.
func (s traceSummary) perOp(name string, unit time.Duration) float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.ops) / float64(unit)
}

// perCall is the mean self time of one call of a span name, in unit.
func (s traceSummary) perCall(name string, unit time.Duration) float64 {
	if s.calls[name] == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.calls[name]) / float64(unit)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Aggregates are drawn on their own
// track, one bar of their summed duration at their first call.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid := s.Lane + 1
		if s.Agg {
			tid += 1000
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Total) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]any{"op": s.Op, "count": s.Count},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
