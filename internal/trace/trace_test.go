package trace

import (
	"testing"
	"time"
)

func TestBuilderProducesOrderedEvents(t *testing.T) {
	b := NewBuilder()
	pid := b.Spawn(0, "/bin/cp", "cp", "a", "b")
	b.Read(pid, "a", 100).Write(pid, "b", 100).Close(pid, "b").Exit(pid)
	tr := b.Trace()
	kinds := []Kind{Exec, Read, Write, Close, Exit}
	if len(tr.Events) != len(kinds) {
		t.Fatalf("events = %d, want %d", len(tr.Events), len(kinds))
	}
	for i, k := range kinds {
		if tr.Events[i].Kind != k {
			t.Fatalf("event %d = %v, want %v", i, tr.Events[i].Kind, k)
		}
	}
}

func TestSpawnWithParentEmitsFork(t *testing.T) {
	b := NewBuilder()
	parent := b.Spawn(0, "/bin/sh", "sh")
	child := b.Spawn(parent, "/bin/ls", "ls")
	if parent == child {
		t.Fatal("pids collide")
	}
	tr := b.Trace()
	var forked bool
	for _, e := range tr.Events {
		if e.Kind == Fork && e.PID == parent && e.Child == child {
			forked = true
		}
	}
	if !forked {
		t.Fatal("no fork event for child spawn")
	}
}

func TestEventString(t *testing.T) {
	for _, e := range []Event{
		{Kind: Exec, PID: 1, Path: "/bin/x", Argv: []string{"x"}},
		{Kind: Fork, PID: 1, Child: 2},
		{Kind: Read, PID: 1, Path: "f", Bytes: 10},
		{Kind: Compute, PID: 1, Dur: time.Second},
		{Kind: Close, PID: 1, Path: "f"},
	} {
		if e.String() == "" {
			t.Fatalf("empty String for %v", e.Kind)
		}
	}
}
