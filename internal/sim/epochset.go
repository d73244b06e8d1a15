package sim

import (
	"fmt"
	"sync"
)

// EpochSet is one K-way shard set and its reshard lifecycle — everything
// that is identical whether the shards are SimpleDB domains or SQS queues. It
// owns the placement directory, the shard slots themselves, and the
// epoch-generation barriers the resharder synchronizes on:
//
//   - every write (and, for sets that need it, every read) registers
//     against the generation of the routing view it captured;
//   - the resharder bumps the generation at each directory transition and
//     waits for older generations to drain — writes before trusting a copy
//     scan (anything not double-written is already on its active-epoch
//     shard), reads before GC'ing drained ranges (a query that snapshotted
//     its routing view before the window opened still resolves against the
//     old homes until it finishes).
//
// Discovery is by convention: shard i of logical name "prov" is the service
// endpoint "prov-i" on gate lane i. A set created at K == 1 keeps the bare
// name for shard 0 forever, so the seed topology's layout is byte-identical
// and the endpoint identity survives growth. Slots are minted under the set
// lock, so growth, the live count and every captured view are mutually
// consistent.
type EpochSet[T any] struct {
	dir      *Directory
	base     string
	bareZero bool
	mint     func(name string, lane int) T

	mu     sync.Mutex
	slots  []T // index == shard id; every slot is live
	gen    int
	writes map[int]*sync.WaitGroup
	reads  map[int]*sync.WaitGroup
}

// EpochView is one coherent routing snapshot: the epoch pair and the shards
// that were live when it was captured.
type EpochView[T any] struct {
	Active DirEpoch
	Target *DirEpoch
	Shards []T
}

// NewEpochSet creates a k-shard set (k < 1 clamps to 1) named base, minting
// each shard with mint from its service name and gate lane.
func NewEpochSet[T any](base string, k int, mint func(name string, lane int) T) *EpochSet[T] {
	k = max(k, 1)
	s := &EpochSet[T]{
		dir:      NewDirectory(k),
		base:     base,
		bareZero: k == 1,
		mint:     mint,
		writes:   make(map[int]*sync.WaitGroup),
		reads:    make(map[int]*sync.WaitGroup),
	}
	s.growLocked(k)
	return s
}

// growLocked mints the slots [len, k).
func (s *EpochSet[T]) growLocked(k int) {
	for i := len(s.slots); i < k; i++ {
		name := s.base
		if i > 0 || !s.bareZero {
			name = fmt.Sprintf("%s-%d", s.base, i)
		}
		s.slots = append(s.slots, s.mint(name, i))
	}
}

// Base returns the logical name the shards derive theirs from.
func (s *EpochSet[T]) Base() string { return s.base }

// Directory returns the placement directory (epoch inspection, provctl).
func (s *EpochSet[T]) Directory() *Directory { return s.dir }

// Shards reports the number of live shards: both epochs' during a migration,
// and a shrink's decommissioned ones until ShrinkTo retires them.
func (s *EpochSet[T]) Shards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Shard returns shard i, or the zero T if i is outside the live set (a
// daemon may hold a subscription computed just before a shrink
// decommissioned it).
func (s *EpochSet[T]) Shard(i int) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.slots) {
		var none T
		return none
	}
	return s.slots[i]
}

// viewLocked captures the current routing snapshot.
func (s *EpochSet[T]) viewLocked() EpochView[T] {
	v := EpochView[T]{Active: s.dir.Active(), Shards: s.slots}
	if t, ok := s.dir.Target(); ok {
		v.Target = &t
	}
	return v
}

// View captures a routing snapshot without barrier registration — for
// callers whose reads need no GC protection (metrics, display).
func (s *EpochSet[T]) View() EpochView[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked()
}

// begin registers one operation in reg against the current generation and
// returns the view it runs under plus the release the caller must invoke
// when the operation completes.
func (s *EpochSet[T]) begin(reg map[int]*sync.WaitGroup) (EpochView[T], func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg := reg[s.gen]
	if wg == nil {
		wg = &sync.WaitGroup{}
		reg[s.gen] = wg
	}
	wg.Add(1)
	return s.viewLocked(), wg.Done
}

// BeginWrite registers a write against the current routing view.
func (s *EpochSet[T]) BeginWrite() (EpochView[T], func()) { return s.begin(s.writes) }

// BeginRead registers a read against the current routing view.
func (s *EpochSet[T]) BeginRead() (EpochView[T], func()) { return s.begin(s.reads) }

// drain waits out every registration in reg from generations before the
// current one.
func (s *EpochSet[T]) drain(reg map[int]*sync.WaitGroup) {
	s.mu.Lock()
	cur := s.gen
	var wait []*sync.WaitGroup
	for g, wg := range reg {
		if g < cur {
			wait = append(wait, wg)
			delete(reg, g)
		}
	}
	s.mu.Unlock()
	for _, wg := range wait {
		wg.Wait()
	}
}

// DrainPriorWrites blocks until every write that captured a routing view
// older than the current one has been applied. The resharder calls it after
// BeginMigration: once it returns, anything not double-written is already on
// its active-epoch shard, so one consistent copy scan sees everything.
func (s *EpochSet[T]) DrainPriorWrites() { s.drain(s.writes) }

// DrainPriorReads blocks until every read that captured a routing view
// older than the current one has finished. The resharder's GC calls it
// before deleting drained ranges; consequently a reshard must never be run
// synchronously from inside a registered read (it would wait on itself).
func (s *EpochSet[T]) DrainPriorReads() { s.drain(s.reads) }

// BeginMigration opens (or resumes) an epoch transition to k shards,
// minting the slots the target epoch needs. done reports the set is
// already at k with no migration open.
func (s *EpochSet[T]) BeginMigration(k int) (target DirEpoch, resumed, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	target, resumed, done = s.dir.BeginMigration(k)
	if done {
		return target, resumed, done
	}
	s.growLocked(target.Shards)
	if !resumed {
		s.gen++
	}
	return target, resumed, done
}

// Cutover promotes the target epoch to active. A shrink's decommissioned
// slots stay live until ShrinkTo retires them drained.
func (s *EpochSet[T]) Cutover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir.Cutover()
	s.gen++
}

// ShrinkTo releases the shard slots beyond k after a shrink migration has
// drained them. It is a no-op unless the directory is stable at exactly k
// shards. The slice is copied, not truncated in place: views captured before
// the shrink alias the old backing array, and a later grow must not append
// over their tails.
func (s *EpochSet[T]) ShrinkTo(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir.Migrating() || s.dir.Active().Shards != k || k >= len(s.slots) {
		return
	}
	s.slots = append([]T(nil), s.slots[:k]...)
	s.gen++
}
