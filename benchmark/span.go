package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// transaction or query share Trace; Parent is the span that caused this one
// (0 for a root). Start and End are on the run's single clock: wall time on
// the CPU workloads, simulated time on the live ones.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// tracer records spans in memory at the harness's own call sites. A nil
// tracer records nothing, which is how the untraced run stays free of
// tracing cost; spans inside the program are a later change (ROADMAP item
// 2), so everything here is taken from outside the packages under test.
type tracer struct {
	now func() time.Duration

	mu    sync.Mutex
	spans []span
}

func newTracer(now func() time.Duration) *tracer { return &tracer{now: now} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(trace, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: at, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// point records an instantaneous event (a notice arrival) as a zero-length
// span.
func (t *tracer) point(trace, parent int64, name string) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Trace: trace, Name: name, Start: at, End: at})
	t.mu.Unlock()
}

// reset drops everything recorded so far; the CPU workloads trace only
// their last repetition.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat is the per-name aggregate of a span tree.
type spanStat struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total"`
	Self  time.Duration `json:"self"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of that interval its child spans cover (children may
// overlap each other and are clipped to the parent). Unclosed spans are
// skipped.
func selfTimes(spans []span) map[string]spanStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.End >= s.Start && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.Total += dur
		st.Self += dur - coverage(s, kids[s.ID])
		out[s.Name] = st
	}
	return out
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's.
func coverage(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the recorded spans and their per-name aggregates under
// dir; the traced run calls it once, at exit.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Stats map[string]spanStat `json:"stats"`
		Spans []span              `json:"spans"`
	}{selfTimes(spans), spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}
