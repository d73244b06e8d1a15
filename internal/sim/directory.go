package sim

import "sync"

// Epoch-versioned placement directory for the sharded cloud fabric.
//
// The original fabric routed keys with a fixed FNV modulo, which
// welds the shard count into every key's placement: growing a deployment
// from K to K' moves almost every key, so the only way to reshard was a
// stop-the-world copy. The Directory replaces the modulo with a *range
// directory over the hash space*: the 32-bit FNV-1a hash of the routing key
// selects a contiguous hash range, and the range — not the raw hash — names
// the owning shard. An immutable assignment of ranges to shards is an
// *epoch*.
//
// Resharding is then an epoch transition:
//
//   - Growing K -> K' repeatedly splits the widest range and assigns the
//     upper half to a brand-new shard, so a key either keeps its old home or
//     moves to a shard id >= K — keys outside the split ranges never move
//     (the consistent-hashing minimal-movement property).
//   - Shrinking K -> K' reassigns every range owned by a decommissioned
//     shard (id >= K') to survivor id%K'; keys on surviving shards never
//     move.
//
// During a migration the directory holds two epochs at once: the *active*
// epoch (where reads route and where data definitely lives) and the *target*
// epoch (where the resharder is streaming items to). The double-write window
// works off Homes: writers put every item to the union of its active and
// target homes, readers consult the same union, so an item is observable at
// every point of the copy regardless of whether the copier has reached it.
// Cutover atomically promotes the target epoch to active; the drained ranges
// on the old shards become garbage for the cleaner.
//
// Routing keys are object uuids (every version of an object hashes the same
// uuid, so versions co-shard in every epoch — the invariant the routed
// single-key read plans rely on). The directory itself is a tiny in-memory
// structure; core persists a snapshot of it as an S3 control object so a
// restarted resharder can prove which epoch the fabric is in.
type Directory struct {
	mu        sync.RWMutex
	active    DirEpoch
	target    *DirEpoch
	splitLoad map[int]int64
}

// DirRange assigns one contiguous hash range to a shard. The range starts at
// Start (inclusive) and ends at the next range's Start (the last range ends
// at 2^32). Ranges are immutable once published in an epoch.
type DirRange struct {
	Start uint32 `json:"start"`
	Shard int    `json:"shard"`
}

// DirEpoch is one immutable assignment of the whole hash space to Shards
// shards. Ranges are sorted by Start, cover the space, and Ranges[0].Start
// is always 0.
type DirEpoch struct {
	ID     int        `json:"id"`
	Shards int        `json:"shards"`
	Ranges []DirRange `json:"ranges"`
}

// hashSpace is the size of the routing hash space (2^32).
const hashSpace = uint64(1) << 32

// Hash32 is the routing hash: FNV-1a over the key bytes — the one key
// identity every epoch of every directory agrees on.
func Hash32(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// evenEpoch builds epoch id with k equal-width ranges, range i owned by
// shard i — the layout a statically sharded deployment starts from.
func evenEpoch(id, k int) DirEpoch {
	k = max(k, 1)
	e := DirEpoch{ID: id, Shards: k, Ranges: make([]DirRange, k)}
	for i := 0; i < k; i++ {
		e.Ranges[i] = DirRange{Start: uint32(uint64(i) * hashSpace / uint64(k)), Shard: i}
	}
	return e
}

// RouteHash returns the shard owning hash h in this epoch.
func (e DirEpoch) RouteHash(h uint32) int {
	// Binary search for the last range with Start <= h.
	lo, hi := 0, len(e.Ranges)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.Ranges[mid].Start <= h {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return e.Ranges[lo].Shard
}

// Route returns the shard owning key in this epoch.
func (e DirEpoch) Route(key string) int { return e.RouteHash(Hash32(key)) }

// span returns the width of range i (the last range runs to 2^32).
func (e DirEpoch) span(i int) uint64 {
	end := hashSpace
	if i+1 < len(e.Ranges) {
		end = uint64(e.Ranges[i+1].Start)
	}
	return end - uint64(e.Ranges[i].Start)
}

// grow derives the epoch that follows e with k > e.Shards shards: each new
// shard id takes the upper half of one existing range, so existing keys
// either stay put or move to a new shard (the consistent-hashing minimal-
// movement property holds regardless of which range splits).
//
// Which range splits is the load policy. With per-shard op counts (load),
// each range is weighted by the traffic it carries — a shard's ops spread
// over its owned span, so heat(range) = ops(owner) * span / ownedSpan(owner)
// — and the *hottest* range splits (ties: the widest, then the lowest
// Start). Without load hints (nil, empty, or all-zero), the policy falls
// back to the historical widest-range split, byte-identical to the old
// behavior, so key-count-balanced deployments keep their pinned geometry.
func (e DirEpoch) grow(id, k int, load map[int]int64) DirEpoch {
	next := DirEpoch{ID: id, Shards: k, Ranges: append([]DirRange(nil), e.Ranges...)}
	// Ops per unit of hash span for each of e's ranges, attributed by the
	// pre-grow owner. Splitting a range hands the upper half (and its share
	// of the heat) to the new shard, so both halves keep the density.
	var density []float64
	total := int64(0)
	for _, v := range load {
		total += v
	}
	if total > 0 {
		owned := make(map[int]uint64, e.Shards)
		for i := range e.Ranges {
			owned[e.Ranges[i].Shard] += e.span(i)
		}
		density = make([]float64, 0, len(e.Ranges))
		for _, r := range e.Ranges {
			density = append(density, float64(load[r.Shard])/float64(owned[r.Shard]))
		}
	}
	for shard := e.Shards; shard < k; shard++ {
		best := -1
		for i := range next.Ranges {
			if next.span(i) < 2 {
				continue // a single-hash range cannot split
			}
			if best < 0 {
				best = i
				continue
			}
			if density != nil {
				hi := float64(next.span(i)) * density[i]
				hb := float64(next.span(best)) * density[best]
				if hi != hb {
					if hi > hb {
						best = i
					}
					continue
				}
			}
			if next.span(i) > next.span(best) {
				best = i
			}
		}
		if best < 0 {
			break // every range is one hash wide; nothing left to split
		}
		mid := uint32(uint64(next.Ranges[best].Start) + next.span(best)/2)
		split := DirRange{Start: mid, Shard: shard}
		next.Ranges = append(next.Ranges, DirRange{})
		copy(next.Ranges[best+2:], next.Ranges[best+1:])
		next.Ranges[best+1] = split
		if density != nil {
			density = append(density, 0)
			copy(density[best+2:], density[best+1:])
			density[best+1] = density[best]
		}
	}
	return next
}

// maxShrinkRanges bounds a folded epoch's fragmentation: when the modulo
// fold would leave more ranges than this, shrink re-folds decommissioned
// ranges onto an adjacent survivor instead, which coalesces whole runs.
// The bound is generous enough that any single transition from an even
// layout (at most one range per pre-shrink shard, MaxShards 64) stays on
// the modulo path, so the historical geometry is preserved everywhere the
// equivalence suites pin it.
func maxShrinkRanges(k int) int { return 64 + 8*k }

// shrink derives the epoch that follows e with k < e.Shards shards: ranges
// owned by a decommissioned shard (id >= k) fold onto survivor id%k, and
// adjacent ranges with the same owner coalesce. Keys on survivors never
// move.
//
// The modulo fold spreads a decommissioned shard's load across survivors
// but can fragment: repeated load-aware grow/shrink cycles interleave
// owners so adjacent ranges rarely coalesce, and the range list creeps up
// without bound. When the folded epoch exceeds maxShrinkRanges, shrink
// instead folds each decommissioned range onto the owner of its nearest
// surviving neighbor to the left (the first survivor to the right for a
// leading run), which collapses every run of decommissioned ranges into
// its neighbor and caps the result at the survivor-owned range count.
// Both folds keep every key on a surviving shard exactly where it was.
func (e DirEpoch) shrink(id, k int) DirEpoch {
	next := e.foldModulo(id, k)
	if len(next.Ranges) > maxShrinkRanges(k) {
		next = e.foldNeighbor(id, k)
	}
	return next
}

// foldModulo reassigns decommissioned ranges to survivor id%k.
func (e DirEpoch) foldModulo(id, k int) DirEpoch {
	next := DirEpoch{ID: id, Shards: k}
	for _, r := range e.Ranges {
		if r.Shard >= k {
			r.Shard = r.Shard % k
		}
		if n := len(next.Ranges); n > 0 && next.Ranges[n-1].Shard == r.Shard {
			continue // coalesce with the previous range
		}
		next.Ranges = append(next.Ranges, r)
	}
	return next
}

// foldNeighbor reassigns each decommissioned range to the owner of the
// nearest surviving range to its left (to its right for a leading run), so
// consecutive decommissioned ranges coalesce into one surviving neighbor.
// Every epoch assigns each shard at least one range, so both sweeps find an
// owner < k.
func (e DirEpoch) foldNeighbor(id, k int) DirEpoch {
	owners := make([]int, len(e.Ranges))
	left := -1
	for i, r := range e.Ranges {
		if r.Shard < k {
			left = r.Shard
		}
		owners[i] = left
	}
	right := -1
	for i := len(e.Ranges) - 1; i >= 0; i-- {
		if e.Ranges[i].Shard < k {
			right = e.Ranges[i].Shard
		}
		if owners[i] < 0 {
			owners[i] = right
		}
	}
	next := DirEpoch{ID: id, Shards: k}
	for i, r := range e.Ranges {
		r.Shard = owners[i]
		if n := len(next.Ranges); n > 0 && next.Ranges[n-1].Shard == r.Shard {
			continue
		}
		next.Ranges = append(next.Ranges, r)
	}
	return next
}

// NewDirectory returns a stable directory with one epoch of k even ranges.
func NewDirectory(k int) *Directory {
	return &Directory{active: evenEpoch(0, k)}
}

// RestoreDirectory reconstructs a directory from a persisted snapshot —
// how tooling (provctl's topology audit) re-materializes the routing state
// the control object recorded and checks it against a live fabric.
func RestoreDirectory(s DirSnapshot) *Directory {
	d := &Directory{active: s.Active}
	if s.Target != nil {
		t := *s.Target
		d.target = &t
	}
	return d
}

// Active returns the epoch reads and legacy single-home writes route by.
func (d *Directory) Active() DirEpoch {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active
}

// Target returns the migration target epoch, if a migration is in flight.
func (d *Directory) Target() (DirEpoch, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.target == nil {
		return DirEpoch{}, false
	}
	return *d.target, true
}

// Migrating reports whether an epoch transition is in flight.
func (d *Directory) Migrating() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.target != nil
}

// Epoch returns the active epoch id.
func (d *Directory) Epoch() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.ID
}

// Route returns key's home shard in the active epoch.
func (d *Directory) Route(key string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.Route(key)
}

// RouteNewestFor returns key's home in the newest epoch of a pair — the
// target when non-nil, otherwise the active epoch. Like HomesFor, this is
// the one definition of the rule; directories and the shard sets' views
// both route through it.
func RouteNewestFor(active DirEpoch, target *DirEpoch, key string) int {
	if target != nil {
		return target.Route(key)
	}
	return active.Route(key)
}

// Homes is every shard that may hold a key: its active home, then its
// target home while a migration moves the key, else -1. It is a value, so
// routing a key allocates nothing.
type Homes [2]int

// List returns the one or two homes, a slice of h itself.
func (h *Homes) List() []int {
	if h[1] < 0 {
		return h[:1]
	}
	return h[:]
}

// HomesFor returns every shard that may hold key under an epoch pair: the
// active home, plus the target home when target is non-nil and differs.
// This is the one definition of the double-write (and union-read) set;
// directories and the shard sets' views all route through it.
func HomesFor(active DirEpoch, target *DirEpoch, key string) Homes {
	h := Hash32(key)
	hs := Homes{active.RouteHash(h), -1}
	if target != nil {
		if t := target.RouteHash(h); t != hs[0] {
			hs[1] = t
		}
	}
	return hs
}

// Homes returns every shard that may hold key right now (HomesFor over the
// directory's current epoch pair).
func (d *Directory) Homes(key string) Homes {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return HomesFor(d.active, d.target, key)
}

// SetSplitLoad installs a one-shot load hint for the next grow transition:
// per-shard op counts (windowed deltas from the meter, typically) that the
// split policy uses to pick the hottest range instead of the widest. The
// hint is consumed — or discarded, for a resume, a no-op, or a shrink — by
// the next BeginMigration, so stale traffic never skews a later, unrelated
// transition. A nil, empty, or all-zero hint leaves the widest-range
// fallback in force.
func (d *Directory) SetSplitLoad(load map[int]int64) {
	cp := make(map[int]int64, len(load))
	for s, v := range load {
		cp[s] = v
	}
	d.mu.Lock()
	d.splitLoad = cp
	d.mu.Unlock()
}

// HasSplitLoad reports whether a split-load hint is pending — callers that
// derive a default hint from cumulative counters use it to avoid clobbering
// a controller's windowed one.
func (d *Directory) HasSplitLoad() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.splitLoad != nil
}

// BeginMigration opens an epoch transition to k shards and returns the
// target epoch. Calling it again with the same k resumes the in-flight
// migration (resumed true); if the active epoch already has k shards and no
// migration is open, there is nothing to do (done true). A different k while
// migrating is rejected — finish or recover the open migration first.
func (d *Directory) BeginMigration(k int) (target DirEpoch, resumed, done bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	load := d.splitLoad
	d.splitLoad = nil // one-shot: consumed or discarded by this transition
	if d.target != nil {
		if d.target.Shards != k {
			panic("sim: directory migration already in flight to a different width")
		}
		return *d.target, true, false
	}
	if d.active.Shards == k {
		return d.active, false, true
	}
	var next DirEpoch
	if k > d.active.Shards {
		next = d.active.grow(d.active.ID+1, k, load)
	} else {
		next = d.active.shrink(d.active.ID+1, k)
	}
	d.target = &next
	return next, false, false
}

// Cutover promotes the target epoch to active, ending the double-write
// window. It is a no-op when no migration is in flight (a recovered
// resharder may retry it).
func (d *Directory) Cutover() DirEpoch {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.target != nil {
		d.active = *d.target
		d.target = nil
	}
	return d.active
}

// DirSnapshot is the persistable state of a directory — what core stores in
// the fabric's S3 control object.
type DirSnapshot struct {
	Active DirEpoch  `json:"active"`
	Target *DirEpoch `json:"target,omitempty"`
}

// Snapshot captures the directory for persistence.
func (d *Directory) Snapshot() DirSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := DirSnapshot{Active: d.active}
	if d.target != nil {
		t := *d.target
		s.Target = &t
	}
	return s
}
