// Package pasfs implements PA-S3fs, the provenance-aware user-level file
// system interface of §4.2. It sits between PASS (the collector) and a
// storage protocol: application system calls flow through the collector,
// data accumulates in a local cache, and on close or flush the file's data
// and cached provenance are handed to the protocol — exactly the
// architecture of Figure 1.
//
// The non-provenance baseline is the same layer with collection disabled
// (plain S3fs on a vanilla kernel).
package pasfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// MountPrefix marks the paths served by the cloud-backed mount; events on
// other paths are local-disk activity (still observed by PASS, so local
// files appear as ancestors, but they move no cloud data).
const MountPrefix = "mnt/"

// OnMount reports whether a path lives on the PA-S3fs mount.
func OnMount(path string) bool { return strings.HasPrefix(path, MountPrefix) }

// Config tunes the client layer.
type Config struct {
	// Collect enables PASS provenance collection (false = plain S3fs on a
	// vanilla kernel: the baseline).
	Collect bool
	// AsyncCommits uploads on close/flush in the background, as the
	// paper's measured implementation does; false blocks each close until
	// its upload finishes.
	AsyncCommits bool
	// MaxInflight bounds concurrent in-flight commits (async mode).
	MaxInflight int
}

// DefaultConfig collects provenance and uploads asynchronously.
func DefaultConfig() Config {
	return Config{Collect: true, AsyncCommits: true, MaxInflight: 8}
}

// FS is one mounted PA-S3fs instance.
type FS struct {
	env   *sim.Env
	proto core.Protocol
	col   *pass.Collector
	cfg   Config

	mu       sync.Mutex
	inflight map[string]chan struct{} // per-path commit completion
	errs     []error
	wg       sync.WaitGroup
	sem      chan struct{}

	// sizes is the local data cache's view of each mount file's length;
	// it exists independently of the collector so the plain-S3fs baseline
	// uploads real payloads too.
	sizes map[string]int64

	// debt accumulates client-side time (per-op costs and compute bursts)
	// and is slept in coarse chunks: a workload issues tens of thousands
	// of sub-millisecond operations, and sleeping each individually would
	// pile live-mode timer noise onto the sequential path.
	debt time.Duration

	mountOps int64 // fs-level operations on the mount (the paper's op counts)
}

// debtChunk is the granularity at which accumulated client time is slept.
const debtChunk = time.Second

// charge adds client time to the debt and sleeps any whole chunks.
func (fs *FS) charge(d time.Duration) {
	fs.debt += d
	if fs.debt >= debtChunk {
		fs.env.Compute(fs.debt)
		fs.debt = 0
	}
}

// settleDebt sleeps whatever residual client time remains.
func (fs *FS) settleDebt() {
	if fs.debt > 0 {
		fs.env.Compute(fs.debt)
		fs.debt = 0
	}
}

// New mounts a client over proto. The collector may be nil when cfg.Collect
// is false.
func New(env *sim.Env, proto core.Protocol, col *pass.Collector, cfg Config) *FS {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	return &FS{
		env:      env,
		proto:    proto,
		col:      col,
		cfg:      cfg,
		inflight: make(map[string]chan struct{}),
		sem:      make(chan struct{}, cfg.MaxInflight),
		sizes:    make(map[string]int64),
	}
}

// Collector returns the PASS collector (nil for the baseline).
func (fs *FS) Collector() *pass.Collector { return fs.col }

// Protocol returns the storage protocol in use.
func (fs *FS) Protocol() core.Protocol { return fs.proto }

// MountOps returns the number of fs-level operations that hit the mount.
func (fs *FS) MountOps() int64 { return fs.mountOps }

// Apply feeds one trace event through the client: the collector sees every
// event; mount-path closes and flushes trigger protocol commits.
func (fs *FS) Apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.Compute:
		fs.charge(ev.Dur)
		return nil
	case trace.Exec, trace.Fork, trace.Exit:
		// Process bookkeeping costs nothing at the fs layer.
	case trace.Read, trace.Write, trace.Close, trace.Flush, trace.Unlink, trace.MkPipe:
		if OnMount(ev.Path) {
			fs.mountOps++
			fs.charge(fs.env.ClientOpCost(int(ev.Bytes)))
			if ev.Kind == trace.Write {
				fs.sizes[ev.Path] += ev.Bytes
			}
			if ev.Kind == trace.Unlink {
				delete(fs.sizes, ev.Path)
			}
		}
	}
	if fs.cfg.Collect && fs.col != nil {
		if err := fs.col.Apply(ev); err != nil {
			return err
		}
	}
	switch ev.Kind {
	case trace.Close, trace.Flush:
		if OnMount(ev.Path) {
			return fs.commit(ev.Path)
		}
	case trace.Unlink:
		if OnMount(ev.Path) {
			// Serialize behind any in-flight commit of the same path so
			// the delete is not overtaken by an older upload.
			fs.mu.Lock()
			prev := fs.inflight[ev.Path]
			fs.mu.Unlock()
			if prev != nil {
				<-prev
			}
			return fs.proto.Delete(ev.Path)
		}
	}
	return nil
}

// Run replays a whole trace and waits for in-flight commits to drain.
func (fs *FS) Run(tr trace.Trace) error {
	for _, ev := range tr.Events {
		if err := fs.Apply(ev); err != nil {
			return err
		}
	}
	return fs.Drain()
}

// commit extracts the file's pending provenance (its new versions plus the
// unrecorded ancestor closure) and hands data+provenance to the protocol.
func (fs *FS) commit(path string) error {
	obj := core.FileObject{Path: path, Size: fs.sizes[path]}
	var bundles []prov.Bundle
	if fs.cfg.Collect && fs.col != nil {
		ref, ok := fs.col.FileRef(path)
		if !ok {
			return fmt.Errorf("pasfs: close of untracked file %s", path)
		}
		obj.Ref = ref
		// Ancestry digest for reader-side Merkle verification (§4.3.1):
		// core.ClosureRoot of the full closure, from memoized leaf digests.
		obj.Digest = fs.col.ClosureRootFor(path).String()
		bundles = fs.col.PendingFor(path)
		// Mark optimistically so a later close does not re-send the same
		// ancestors; a failed upload surfaces through Drain.
		for _, b := range bundles {
			fs.col.MarkRecorded(b.Ref)
		}
	}
	if !fs.cfg.AsyncCommits {
		return fs.proto.Commit(obj, bundles)
	}

	// Async: wait for a previous in-flight commit of the same path (write
	// ordering per object), then upload in the background.
	fs.mu.Lock()
	prev := fs.inflight[path]
	done := make(chan struct{})
	fs.inflight[path] = done
	fs.mu.Unlock()

	fs.wg.Add(1)
	fs.sem <- struct{}{}
	go func() {
		defer fs.wg.Done()
		defer close(done)
		defer func() { <-fs.sem }()
		if prev != nil {
			<-prev
		}
		if err := fs.proto.Commit(obj, bundles); err != nil {
			fs.mu.Lock()
			fs.errs = append(fs.errs, err)
			fs.mu.Unlock()
		}
	}()
	return nil
}

// Drain waits for all in-flight commits and returns the first upload error.
func (fs *FS) Drain() error {
	fs.settleDebt()
	fs.wg.Wait()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.errs) > 0 {
		return errors.Join(fs.errs...)
	}
	return nil
}
