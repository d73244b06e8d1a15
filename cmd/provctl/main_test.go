package main

import (
	"fmt"
	"io"
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/golden"
)

// p3Script uses every command and sub-verb of the table, plus a few usage
// errors, on the challenge replay. The bill comes before tenants demo: from
// the demo on, the request counts vary (see masks).
var p3Script = []string{
	"help",
	"ls mnt/chal/atlas",
	"stat mnt/chal/atlas-y.pgm",
	"stat",
	"prov mnt/chal/atlas-y.pgm",
	"ancestry mnt/chal/atlas-y.pgm",
	"ancestry mnt/nowhere",
	"outputs align_warp",
	"descendants align_warp",
	"plan attr:name=align_warp attr:type=proc dir=descendants depth=1 filter=type:file",
	"query attr:name=align_warp attr:type=proc dir=descendants depth=1 filter=type:file",
	"query dir=sideways",
	"verify mnt/chal/atlas-y.pgm",
	"props",
	"pushdown",
	"pushdown off",
	"pushdown on",
	"cache",
	"cache 64",
	"query path:mnt/chal/atlas-y.pgm dir=versions",
	"pushdown off",
	"cache sub",
	"cache stats",
	"cache unsub",
	"cache off",
	"cache bogus",
	"topology",
	"faults 0.05",
	"outputs align_warp",
	"faults stats",
	"faults off",
	"faults",
	"faults 2",
	"bill",
	"tenants",
	"tenants demo",
	"tenants stats",
	"log head",
	"log prove mnt/chal/atlas-y.pgm",
	"log prove d0f75c83-a0e0-44a1-83f5-fc40017855e0",
	"log prove",
	"log audit",
	"log",
	"reshard 2",
	"reshard two",
	"topology",
	"autoscale",
	"autoscale step",
	"autoscale on",
	"autoscale step",
	"autoscale step 1m",
	"autoscale step soon",
	"autoscale status",
	"autoscale off",
	"frobnicate",
	"quit",
	"bill",
}

// p1Script is the store backend's view: its plans, an empty transparency
// log and the commands only P3 serves.
var p1Script = []string{
	"stat mnt/chal/atlas-y.pgm",
	"plan path:mnt/chal/atlas-y.pgm dir=versions",
	"plan attr:name=align_warp attr:type=proc dir=descendants depth=1",
	"query path:mnt/chal/atlas-y.pgm dir=versions project=bundles",
	"cache 8",
	"outputs align_warp",
	"props",
	"log head",
	"log prove mnt/chal/atlas-y.pgm",
	"log audit",
	"tenants demo",
	"bill",
}

// masks are the only transcript fields the seed does not decide yet, each
// with its cause. Everything else, every uuid, result list, op count, plan
// line, reshard count and the bill, is pinned.
var masks = []struct {
	cause, re, repl string
}{
	{"simulated durations: parallel sleeps sum on the manual clock, in scheduling order (ROADMAP item 1); op counts stay pinned",
		`\d+\.\d{3}s, (\d+ ops\))`, "<sim-s>, $1"},
	{"autoscale's window and rate: the simulated time since the last sample inherits those sums (ROADMAP item 1)",
		`last window: \S+, [\d.]+ ops/s/shard`, "last window: <sim-dur>, <rate> ops/s/shard"},
	{"the log root: a leaf hashes its simulated sequencing time (ROADMAP item 14)",
		`root( +)[0-9a-f]{64}`, "root$1<root>"},
	{"the proof path: the same hashes, and its length follows the leaf index (ROADMAP item 14)",
		`(  path\[\d+\] [0-9a-f]{64}\n)+`, "  path <hashes>\n"},
	{"the sequencing time itself (ROADMAP item 14)",
		`sim t=[\d.]+s`, "sim t=<sim-s>"},
	{"the leaf index: P3.Settle drains the WAL on concurrent commit workers, so groups publish and leaves append in scheduling order (ROADMAP item 1)",
		`leaf \d+ of`, "leaf <index> of"},
	{"resilience attempts: after tenants demo, P3.Settle's concurrent workers poll the WAL a scheduling-dependent number of times (ROADMAP item 1)",
		`attempts=\d+`, "attempts=<n>"},
	{"the control object's state and verdict: topology reads it eventually consistently, and may see the state before the last",
		`state=\w+, (matches live routing|LAGS live routing \([^)]*\) — stale read or pending ResumeReshard)`, "state=<eventual>, <verdict>"},
}

// echo feeds run one script line per Read and writes that line to the
// transcript too, so the golden reads as a session.
type echo struct {
	lines []string
	out   io.Writer
}

func (e *echo) Read(p []byte) (int, error) {
	if len(e.lines) == 0 {
		return 0, io.EOF
	}
	line := e.lines[0] + "\n"
	e.lines = e.lines[1:]
	fmt.Fprint(e.out, line)
	return copy(p, line), nil
}

// TestTranscript drives a P3 and a P1 session at seed 42 through run and
// compares each transcript, masked, with its golden. Rewrite them with
// go test ./cmd/provctl -update and read the diff.
func TestTranscript(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		script   []string
	}{{"P3", p3Script}, {"P1", p1Script}} {
		t.Run(tc.protocol, func(t *testing.T) {
			var out strings.Builder
			if err := run(&echo{lines: tc.script, out: &out}, &out, "challenge", tc.protocol, 42); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			for _, m := range masks {
				got = regexp.MustCompile(m.re).ReplaceAllString(got, m.repl)
			}
			golden.Check(t, "transcript_"+strings.ToLower(tc.protocol), got)
		})
	}
}

// TestScriptCoversTable fails when the table has a command, or a literal
// sub-verb in its usage line, that the P3 script never uses.
func TestScriptCoversTable(t *testing.T) {
	used := func(words ...string) bool {
		return slices.ContainsFunc(p3Script, func(line string) bool {
			f := strings.Fields(line)
			return len(f) >= len(words) && slices.Equal(f[:len(words)], words)
		})
	}
	for _, c := range commands {
		if !used(c.name) {
			t.Errorf("the script never runs %q", c.name)
		}
		for _, alt := range strings.Split(strings.NewReplacer("[", " ", "]", " ").Replace(c.args), "|") {
			if f := strings.Fields(alt); len(f) > 0 && !strings.Contains(f[0], "<") && !used(c.name, f[0]) {
				t.Errorf("the script never runs %q %q", c.name, f[0])
			}
		}
	}
}

// TestBootIsSeeded: two sessions booted at one seed replay identically —
// the same object uuids and the same requests, kind for kind.
func TestBootIsSeeded(t *testing.T) {
	const path = "mnt/chal/atlas-y.pgm"
	var sessions [2]*session
	for i := range sessions {
		s, err := boot("challenge", "P3", 42)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	a, b := sessions[0], sessions[1]
	refA, okA := a.col.FileRef(path)
	refB, okB := b.col.FileRef(path)
	if !okA || !okB || refA != refB {
		t.Fatalf("%s: FileRef %v (%v) vs %v (%v)", path, refA, okA, refB, okB)
	}
	opsA, opsB := a.env.Meter().Usage().OpsByKind, b.env.Meter().Usage().OpsByKind
	if !maps.Equal(opsA, opsB) {
		t.Fatalf("requests by kind differ:\n%v\n%v", opsA, opsB)
	}
}
