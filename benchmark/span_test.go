package main

import (
	"testing"
	"time"
)

// A hand-built tree:
//
//	commit   [0,100)   children: put [10,40), send [30,70), late [90,120)
//	  put    [10,40)   child:    gate [15,25)
//	  send   [30,70)
//	  late   [90,120)  (runs past its parent: clipped to [90,100))
//	open     [5,?)     never closed: skipped
//
// commit's children cover [10,70) ∪ [90,100) = 70, so its self time is 30.
func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "commit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "put", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "send", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "gate", Start: 15, End: 25},
		{ID: 6, Name: "open", Start: 5, End: -1},
	}
	st := selfTimes(spans)
	want := map[string]spanStat{
		"commit": {Count: 1, Total: 100, Self: 30},
		"put":    {Count: 1, Total: 30, Self: 20},
		"send":   {Count: 1, Total: 40, Self: 40},
		"late":   {Count: 1, Total: 30, Self: 30},
		"gate":   {Count: 1, Total: 10, Self: 10},
	}
	if len(st) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(st), len(want), st)
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("%s = %+v, want %+v", name, st[name], w)
		}
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var now time.Duration
	tr := newTracer(func() time.Duration { now += 10; return now })
	root := tr.start(7, 0, "root")
	child := tr.start(7, root, "child")
	tr.end(child)
	tr.end(root)
	tr.point(7, root, "notice")
	got := tr.snapshot()
	if len(got) != 3 || got[1].Parent != root || got[0].Trace != 7 || got[2].Start != got[2].End {
		t.Fatalf("unexpected spans: %+v", got)
	}
	if st := selfTimes(got)["root"]; st.Self != st.Total-(got[1].End-got[1].Start) {
		t.Errorf("root self %v of total %v with a %v child", st.Self, st.Total, got[1].End-got[1].Start)
	}
	tr.reset()
	if len(tr.snapshot()) != 0 {
		t.Error("reset kept spans")
	}

	var none *tracer
	if id := none.start(1, 0, "x"); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	none.end(0)
	none.point(1, 0, "x")
	none.reset()
	if none.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}
