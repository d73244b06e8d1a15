package fabric

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

// everyLayer is a fabric with every optional layer on, at time scale scale
// (0 = manual clock).
func everyLayer(t *testing.T, scale float64) *Fabric {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	cfg.TimeScale = scale
	cfg.Consistency = sim.Strict
	f, err := New(Config{
		Sim: cfg, Topology: core.Topology{WALShards: 2, DBShards: 2}, Workers: 4,
		Tenants:      []Tenant{{ID: "acme", Quota: frontdoor.Quota{Rate: 1000, Burst: 100, MaxQueue: 100}}},
		Translog:     true,
		CacheEntries: 64,
		Autoscale:    &autoscale.Config{MinK: 2, MaxK: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// commitN commits n two-bundle transactions (a process and the file it
// wrote) through the fabric's tenant.
func commitN(t *testing.T, f *Fabric, n int) {
	t.Helper()
	tenant := f.Tenants[0]
	for i := 0; i < n; i++ {
		proc := prov.Ref{UUID: tenant.NewUUID(), Version: 1}
		file := prov.Ref{UUID: tenant.NewUUID(), Version: 1}
		path := fmt.Sprintf("mnt/f%03d", i)
		bundles := []prov.Bundle{
			{Ref: proc, Type: prov.Process, Name: "gen", Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"}, {Attr: prov.AttrName, Value: "gen"},
			}},
			{Ref: file, Type: prov.File, Name: path, Records: []prov.Record{
				{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: proc},
			}},
		}
		if err := tenant.Commit(core.FileObject{Path: path, Size: 128, Ref: file}, bundles); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// goroutinesSettleTo waits for the goroutine count to come back down to
// want: a joined goroutine has closed its done channel but may not have
// left the scheduler's count yet.
func goroutinesSettleTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestCloseAndToManualAreIdempotentAndLeaveNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	f := everyLayer(t, 400)
	f.Start()
	f.Start()
	commitN(t, f, 5)
	for i := 0; i < 2; i++ {
		if err := f.ToManual(); err != nil {
			t.Fatal(err)
		}
		f.Stop()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if f.Env.Clock().Live() {
		t.Fatal("fabric still on the live clock after ToManual")
	}
	if n := f.P3.PendingTxns() + f.Dep.WAL.Len(); n != 0 {
		t.Fatalf("ToManual left %d transactions or packets undrained", n)
	}
	if n := goroutinesSettleTo(before); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}

	// Stop alone joins what it stops: a fabric with no controller has
	// nothing left running after it.
	cfg := sim.DefaultConfig()
	cfg.TimeScale = 400
	bare, err := New(Config{Sim: cfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bare.Start()
	bare.Stop()
	bare.Stop()
	if n := goroutinesSettleTo(before); n > before {
		t.Fatalf("%d goroutines before, %d after Stop", before, n)
	}
}

// An idle RunDaemon on the manual clock adds its poll interval to simulated
// time on every spin. Flipping the clock under a running pool ran it past
// the WAL's four-day retention and expired the queue; stopped first, the
// pool costs at most the poll its workers were sleeping through. What
// follows on the manual clock is bounded work: the sequencer's last
// checkpoint and the drain's three idle rounds, whose concurrent receives
// each add their service time.
func TestToManualWithIdlePoolDoesNotRaceTheClock(t *testing.T) {
	f := everyLayer(t, 50)
	defer f.Close()
	t0 := f.Env.Now()
	f.Start()
	if err := f.ToManual(); err != nil {
		t.Fatal(err)
	}
	const limit = time.Minute
	if d := f.Env.Now() - t0; d > limit {
		t.Fatalf("simulated time advanced %v across Start+ToManual on an idle fabric, want <= %v", d, limit)
	}
	at := f.Env.Now()
	time.Sleep(5 * time.Millisecond)
	if f.Env.Now() != at {
		t.Fatal("simulated time still moving after ToManual")
	}
}

func TestEveryLayerCommitsCheckpointsAndAudits(t *testing.T) {
	f := everyLayer(t, 0) // manual clock: nothing is started, ToManual's Settle drains
	defer f.Close()
	const txns = 50
	commitN(t, f, txns)
	if err := f.ToManual(); err != nil {
		t.Fatal(err)
	}
	if err := f.Ctl.Step(t.Context()); err != nil {
		t.Fatalf("controller step: %v", err)
	}
	head, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if head.TreeSize != txns {
		t.Fatalf("log holds %d leaves, want one per transaction (%d)", head.TreeSize, txns)
	}
	rep, err := translog.Audit(f.Dep, f.Log, translog.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.InclusionVerified != txns {
		t.Fatalf("audit not clean: %+v", rep)
	}

	spec := query.Spec{Roots: query.Roots{Attrs: []query.AttrMatch{
		{Attr: prov.AttrName, Value: "gen"}, {Attr: prov.AttrType, Value: "proc"},
	}}, Direction: query.Descendants}
	run := func(e *query.Engine) string {
		var sb strings.Builder
		for res, err := range e.Run(spec) {
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s@%d\n", res.Ref, res.Depth)
		}
		return sb.String()
	}
	uncached := run(query.New(f.Dep, core.BackendSDB))
	if n := strings.Count(uncached, "\n"); n != txns {
		t.Fatalf("uncached walk returned %d results, want one file per transaction (%d)", n, txns)
	}
	for pass := 0; pass < 2; pass++ { // cold fill, then served from the cache
		if got := run(f.Engine); got != uncached {
			t.Fatalf("cached pass %d differs from uncached:\n%s\nvs\n%s", pass, got, uncached)
		}
	}
	if f.Engine.Cache().Stats().Hits == 0 {
		t.Fatal("second cached pass never hit the cache")
	}
}

// TestNoLayerUnlessAsked: a fabric that asks for no optional layer commits
// through bare P3 and builds none of them — in particular no log, so nothing
// is appended or signed.
func TestNoLayerUnlessAsked(t *testing.T) {
	f, err := New(Config{Sim: sim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // manual clock: nothing is started, ToManual's Settle drains
	const txns = 5
	for i := 0; i < txns; i++ {
		proc := prov.Ref{UUID: uuid.New(f.Env.Rand()), Version: 1}
		file := prov.Ref{UUID: uuid.New(f.Env.Rand()), Version: 1}
		bundles := []prov.Bundle{
			{Ref: proc, Type: prov.Process, Name: "gen"},
			{Ref: file, Type: prov.File, Name: "f", Records: []prov.Record{{Attr: prov.AttrInput, Xref: proc}}},
		}
		if err := f.P3.Commit(core.FileObject{Path: fmt.Sprintf("mnt/g%d", i), Size: 64, Ref: file}, bundles); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ToManual(); err != nil {
		t.Fatal(err)
	}
	if f.Door != nil || f.Tenants != nil || f.Log != nil || f.Engine != nil || f.Ctl != nil {
		t.Fatalf("layers built unasked: door=%v tenants=%d log=%v engine=%v ctl=%v",
			f.Door != nil, len(f.Tenants), f.Log != nil, f.Engine != nil, f.Ctl != nil)
	}
	if n := f.Dep.DB.ItemCount(); n != 2*txns {
		t.Fatalf("items = %d, want %d", n, 2*txns)
	}
	if u := f.Env.Meter().Usage(); u.LogAppends != 0 || u.LogHeads != 0 {
		t.Fatalf("no log asked for, yet %d appends and %d heads", u.LogAppends, u.LogHeads)
	}
}

// rootGo returns the source of every non-test Go file in the root module,
// outside benchmark/ (a nested module) and dot directories, keyed by its
// slash path from the root.
func rootGo(t *testing.T) map[string][]byte {
	t.Helper()
	root := filepath.Join("..", "..")
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() && (rel == "benchmark" || strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRepoShape keeps the lifecycle in one place: in the root module's
// non-test code only internal/core (which defines it) and this package call
// RunDaemon, and internal/bench never flips a clock to manual itself. It
// also keeps this package the composition root of the programs — no example
// or command wires P3 or a sharded deployment by hand or sets the clock's
// scale — and keeps every example under a test.
func TestRepoShape(t *testing.T) {
	for rel, src := range rootGo(t) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if bytes.Contains(src, []byte(".RunDaemon(")) && dir != "internal/core" && dir != "internal/fabric" {
			t.Errorf("%s calls RunDaemon; start daemons with fabric.Start", rel)
		}
		if bytes.Contains(src, []byte("SetScale(0)")) && dir == "internal/bench" {
			t.Errorf("%s flips the clock itself; use fabric.ToManual", rel)
		}
		if strings.HasPrefix(rel, "examples/") || strings.HasPrefix(rel, "cmd/") {
			for _, call := range []string{"core.NewP3(", "core.NewShardedDeployment(", "SetScale("} {
				if bytes.Contains(src, []byte(call)) {
					t.Errorf("%s calls %s; build the stack with fabric.New and keep its clock", rel, call)
				}
			}
		}
	}
	examples, err := os.ReadDir(filepath.Join("..", "..", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range examples {
		if _, err := os.Stat(filepath.Join("..", "..", "examples", e.Name(), "main_test.go")); e.IsDir() && err != nil {
			t.Errorf("examples/%s has no main_test.go pinning its output", e.Name())
		}
	}
}

// rootGoCeiling caps the root module's non-test Go lines, as rootGo finds
// them. It is the count at the change that last lowered it: a change may
// lower it to its own count, never raise it.
const rootGoCeiling = 21949

// TestRootGoCeiling prints the root module's non-test Go line count and
// fails above rootGoCeiling.
func TestRootGoCeiling(t *testing.T) {
	n := 0
	for _, src := range rootGo(t) {
		n += bytes.Count(src, []byte("\n"))
	}
	t.Logf("root non-test Go: %d lines, ceiling %d", n, rootGoCeiling)
	if n > rootGoCeiling {
		t.Errorf("root non-test Go is %d lines, above the ceiling of %d: delete as much as you add", n, rootGoCeiling)
	}
}
