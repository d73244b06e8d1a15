package pasfs

import (
	"slices"
	"sync"
	"testing"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// pipeline builds the canonical two-stage trace.
func pipeline() trace.Trace {
	b := trace.NewBuilder()
	p1 := b.Spawn(0, "/bin/stage1", "stage1")
	b.Read(p1, "raw", 4096).Compute(p1, time.Second)
	b.Write(p1, "mnt/mid", 2048).Close(p1, "mnt/mid")
	p2 := b.Spawn(p1, "/bin/stage2", "stage2")
	b.Read(p2, "mnt/mid", 2048).Write(p2, "mnt/out", 1024).Close(p2, "mnt/out")
	return b.Trace()
}

func newFS(t *testing.T, cfg Config) (*FS, *core.Deployment) {
	t.Helper()
	env := sim.NewEnv(sim.DefaultConfig())
	dep := core.NewDeployment(env)
	proto := core.NewP2(dep, core.Options{})
	var col *pass.Collector
	if cfg.Collect {
		col = pass.New(env.Rand(), nil)
	}
	return New(env, proto, col, cfg), dep
}

func TestRunCommitsMountFiles(t *testing.T) {
	fs, dep := newFS(t, Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
	if err := fs.Run(pipeline()); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	for _, path := range []string{"mnt/mid", "mnt/out"} {
		o, err := fs.proto.Fetch(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if o.Size == 0 {
			t.Fatalf("%s uploaded empty", path)
		}
	}
	// Provenance for the whole pipeline must be queryable.
	outRef, _ := fs.col.FileRef("mnt/out")
	walk, err := core.CheckCausalOrdering(dep, core.BackendSDB, outRef)
	if err != nil {
		t.Fatal(err)
	}
	if len(walk.Dangling) != 0 {
		t.Fatalf("dangling: %v", walk.Dangling)
	}
}

func TestSyncVsAsyncSameState(t *testing.T) {
	for _, async := range []bool{false, true} {
		cfg := Config{Collect: true, AsyncCommits: true, MaxInflight: 8}
		cfg.AsyncCommits = async
		fs, dep := newFS(t, cfg)
		if err := fs.Run(pipeline()); err != nil {
			t.Fatal(err)
		}
		dep.Settle()
		if _, err := fs.proto.Fetch("mnt/out"); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
	}
}

func TestBaselineDoesNotCollect(t *testing.T) {
	cfg := Config{Collect: false, AsyncCommits: false}
	fs, dep := newFS(t, cfg)
	if err := fs.Run(pipeline()); err == nil {
		// The P2 protocol with no collector commits FileObjects with no
		// ref — acceptable for the baseline path; assert no items landed.
		_ = fs
	}
	dep.Settle()
	if dep.DB.ItemCount() != 0 {
		t.Fatal("baseline wrote provenance items")
	}
}

func TestMountOpsCountsOnlyMountPaths(t *testing.T) {
	fs, _ := newFS(t, Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
	if err := fs.Run(pipeline()); err != nil {
		t.Fatal(err)
	}
	// mnt ops: write+close mid, read mid, write+close out = 5.
	if got := fs.MountOps(); got != 5 {
		t.Fatalf("mount ops = %d, want 5", got)
	}
}

func TestUnlinkDeletesFromCloudButKeepsProvenance(t *testing.T) {
	fs, dep := newFS(t, Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
	tr := pipeline()
	tr.Events = append(tr.Events, trace.Event{Kind: trace.Unlink, PID: 101, Path: "mnt/out"})
	if err := fs.Run(tr); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	if _, err := fs.proto.Fetch("mnt/out"); err == nil {
		t.Fatal("unlinked file still in cloud")
	}
	if dep.DB.ItemCount() == 0 {
		t.Fatal("provenance vanished with unlink")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	fs, dep := newFS(t, Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
	before := dep.Env.Now()
	fs.Apply(trace.Event{Kind: trace.Compute, PID: 1, Dur: 5 * time.Second})
	if got := dep.Env.Now() - before; got < 5*time.Second {
		t.Fatalf("compute advanced %v", got)
	}
}

// orderedProtocol records the sizes of the mnt/f commits it is handed, in
// commit order; the first takes a while, so a later one that did not wait
// for it would overtake it.
type orderedProtocol struct {
	stubProtocol
	mu    sync.Mutex
	sizes []int64
}

func (p *orderedProtocol) Commit(obj core.FileObject, _ []prov.Bundle) error {
	if obj.Path != "mnt/f" {
		return nil
	}
	if obj.Size == 10 {
		time.Sleep(20 * time.Millisecond)
	}
	p.mu.Lock()
	p.sizes = append(p.sizes, obj.Size)
	p.mu.Unlock()
	return nil
}

// TestAsyncCommitsOfOnePathRunInOrderAndAreForgotten: two closes of one
// path commit in close order, and once Drain returns no finished commit is
// still held per path.
func TestAsyncCommitsOfOnePathRunInOrderAndAreForgotten(t *testing.T) {
	b := trace.NewBuilder()
	p := b.Spawn(0, "/bin/gen", "gen")
	b.Write(p, "mnt/f", 10).Close(p, "mnt/f").Write(p, "mnt/f", 10).Close(p, "mnt/f")
	b.Write(p, "mnt/g", 10).Close(p, "mnt/g")
	env := sim.NewEnv(sim.DefaultConfig())
	proto := &orderedProtocol{}
	fs := New(env, proto, pass.New(env.Rand(), nil), Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
	if err := fs.Run(b.Trace()); err != nil {
		t.Fatal(err)
	}
	if got := proto.sizes; !slices.Equal(got, []int64{10, 20}) {
		t.Fatalf("mnt/f committed sizes %v, want its first close's (10) before its second's (20)", got)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.inflight) != 0 {
		t.Fatalf("after Drain, %d paths still hold a finished commit", len(fs.inflight))
	}
}
