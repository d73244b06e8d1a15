// Package trace models the system-call stream PASS observes. A trace is a
// sequence of events — exec, fork, read, write, close, pipe I/O, unlink and
// compute bursts — that the collector (internal/pass) turns into a
// provenance graph and the client layer (internal/pasfs) turns into cloud
// traffic.
//
// The workload generators (internal/workload) synthesize traces whose shape
// (operation counts, data volumes, provenance depth) matches the three
// workloads of the paper's evaluation.
package trace

import (
	"fmt"
	"time"
)

// Kind is the event type.
type Kind uint8

// Event kinds.
const (
	Exec    Kind = iota // process start: PID, Argv, Env, Path (binary)
	Fork                // new process: PID (parent), Child
	Exit                // process end: PID
	Read                // PID reads Bytes from Path
	Write               // PID writes Bytes to Path
	Close               // PID closes Path (triggers a flush to the cloud)
	Flush               // PID flushes Path without closing
	Unlink              // PID removes Path
	MkPipe              // PID creates pipe named Path
	Compute             // PID computes for Dur
)

// String names the event kind.
func (k Kind) String() string {
	names := [...]string{"exec", "fork", "exit", "read", "write", "close", "flush", "unlink", "mkpipe", "compute"}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// Event is one observed system call (or compute burst between calls).
type Event struct {
	Kind  Kind
	PID   int
	Child int           // Fork: the new pid
	Path  string        // file or pipe name
	Bytes int64         // Read/Write payload
	Argv  []string      // Exec
	Env   []string      // Exec
	Dur   time.Duration // Compute
}

// String renders a compact single-line form, useful in test failures.
func (e Event) String() string {
	switch e.Kind {
	case Exec:
		return fmt.Sprintf("[%d] exec %s %v", e.PID, e.Path, e.Argv)
	case Fork:
		return fmt.Sprintf("[%d] fork -> %d", e.PID, e.Child)
	case Read, Write:
		return fmt.Sprintf("[%d] %s %s (%d bytes)", e.PID, e.Kind, e.Path, e.Bytes)
	case Compute:
		return fmt.Sprintf("[%d] compute %v", e.PID, e.Dur)
	default:
		return fmt.Sprintf("[%d] %s %s", e.PID, e.Kind, e.Path)
	}
}

// Trace is an ordered event sequence.
type Trace struct {
	Events []Event
}

// Builder accumulates a trace with a fluent interface; the workload
// generators use it to keep their pipelines readable.
type Builder struct {
	t       Trace
	nextPID int
}

// NewBuilder returns a builder whose first allocated pid is 100.
func NewBuilder() *Builder {
	return &Builder{nextPID: 100}
}

// Spawn allocates a pid and emits fork (from parent, 0 for init) and exec.
func (b *Builder) Spawn(parent int, binary string, argv ...string) int {
	pid := b.nextPID
	b.nextPID++
	if parent != 0 {
		b.t.Events = append(b.t.Events, Event{Kind: Fork, PID: parent, Child: pid})
	}
	b.t.Events = append(b.t.Events, Event{Kind: Exec, PID: pid, Path: binary, Argv: argv})
	return pid
}

// Read emits a read event.
func (b *Builder) Read(pid int, path string, n int64) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Read, PID: pid, Path: path, Bytes: n})
	return b
}

// Write emits a write event.
func (b *Builder) Write(pid int, path string, n int64) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Write, PID: pid, Path: path, Bytes: n})
	return b
}

// Close emits a close event.
func (b *Builder) Close(pid int, path string) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Close, PID: pid, Path: path})
	return b
}

// Flush emits a flush event.
func (b *Builder) Flush(pid int, path string) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Flush, PID: pid, Path: path})
	return b
}

// Compute emits a compute burst.
func (b *Builder) Compute(pid int, d time.Duration) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Compute, PID: pid, Dur: d})
	return b
}

// Exit emits a process exit.
func (b *Builder) Exit(pid int) *Builder {
	b.t.Events = append(b.t.Events, Event{Kind: Exit, PID: pid})
	return b
}

// WriteFile is the common write-then-close idiom.
func (b *Builder) WriteFile(pid int, path string, n int64) *Builder {
	return b.Write(pid, path, n).Close(pid, path)
}

// Trace returns the accumulated trace.
func (b *Builder) Trace() Trace { return b.t }
