package sdb

import (
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// strtab is a set of distinct strings of at most MaxValueLen bytes, each
// named by a dense uint32 id: the domain's item table (an item's id indexes
// its record) and each attribute index's value table (a value's id indexes
// its postings). Nothing in it that grows with the strings it holds
// contains a pointer, so the collector marks a few chunk headers however
// many strings there are:
//
//   - the bytes live in append-only chunks of at most chunkSize;
//   - refs locates each id's bytes (see strAt);
//   - slots is an open-addressing probe table of id+1 (0 is empty), hashed
//     with the runtime's string hash under a per-table seed and compared
//     byte for byte on every probe, so a collision costs a probe, never a
//     wrong id;
//   - free holds removed ids, which intern hands out again before new ones;
//   - view caches the ids in ascending order of their strings.
//
// Invariant: bytes of a chunk below its length are never written again, and
// a chunk is never reused. str returns unsafe.String views of those bytes —
// the argument strings.Builder.String makes for its buffer — so a string a
// caller holds stays valid and unchanged across every later intern, remove
// and compaction; all it does is keep its chunk alive.
//
// Slot order depends on the seed, which differs between tables and
// processes, so nothing walks the slots to produce output: growing and
// compaction walk ids, and the view sorts by bytes.
type strtab struct {
	seed   maphash.Seed
	chunks [][]byte // the last one takes new strings
	refs   []uint64 // by id
	free   []uint32
	slots  []uint32 // a power of two long, at most half full
	n      int      // strings held
	live   int      // their bytes
	dead   int      // bytes of removed strings still in chunks
	// The sorted view: nil until the first read, and then kept across
	// writes. A new id waits in added, and the next read sorts the few ids
	// added since the last one and merges them in, backwards and in place;
	// remove cuts its ids out at once.
	view  []uint32
	added []uint32 // interned since view was current: unsorted, some maybe removed or reused since
}

// A ref packs where an id's string lives: the chunk index in bits 32–62,
// the offset in bits 16–31 and the length in bits 0–15. A removed id's ref
// has deadRef set; its bytes stay readable until the next compaction.
const (
	chunkSize       = 32 << 10 // the most one string a caller keeps can pin
	firstChunk      = 256      // a table's first chunk; each next one doubles, up to chunkSize
	deadRef         = 1 << 63
	minCompactBytes = 2 * chunkSize // removed bytes below which a table never compacts
)

func newStrtab() strtab { return strtab{seed: maphash.MakeSeed(), slots: make([]uint32, 16)} }

// strAt returns the string ref r locates in chunks, removed or not.
func strAt(chunks [][]byte, r uint64) string {
	n := int(r & 0xFFFF)
	if n == 0 {
		return ""
	}
	return unsafe.String(&chunks[uint32(r>>32)&^(1<<31)][r>>16&0xFFFF], n)
}

// str returns the string of id, a view of the table's bytes.
func (t *strtab) str(id uint32) string { return strAt(t.chunks, t.refs[id]) }

// removed reports whether id is free.
func (t *strtab) removed(id uint32) bool { return t.refs[id]&deadRef != 0 }

func (t *strtab) hash(s string) int { return int(maphash.String(t.seed, s)) }

// lookup returns the id of s, or else the empty slot that ends its probe.
func (t *strtab) lookup(s string) (id uint32, ok bool, slot int) {
	mask := len(t.slots) - 1
	for i := t.hash(s) & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return 0, false, i
		}
		if t.str(e-1) == s {
			return e - 1, true, i
		}
	}
}

// intern returns the id of s, copying s into the table when it is new.
func (t *strtab) intern(s string) uint32 {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	id, ok, slot := t.lookup(s)
	if ok {
		return id
	}
	if k := len(t.free); k > 0 {
		id, t.free = t.free[k-1], t.free[:k-1]
		t.refs[id] = t.place(s)
	} else {
		id = uint32(len(t.refs))
		t.refs = append(t.refs, t.place(s))
	}
	t.slots[slot] = id + 1
	t.n++
	t.live += len(s)
	if t.view != nil {
		if len(t.added) >= max(len(t.view), 64) {
			// More new ids than the view holds: sorting afresh on the next
			// read costs no more than the merge, and the backlog stops
			// growing.
			t.view, t.added = nil, nil
		} else {
			t.added = append(t.added, id)
		}
	}
	return id
}

// place copies s into the last chunk, or a new one when it does not fit,
// and returns its ref.
func (t *strtab) place(s string) uint64 {
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k])+len(s) > cap(t.chunks[k]) {
		size := firstChunk
		if k >= 0 {
			size = min(2*cap(t.chunks[k]), chunkSize)
		}
		t.chunks = append(t.chunks, make([]byte, 0, max(size, len(s))))
		k++
	}
	c := t.chunks[k]
	t.chunks[k] = append(c, s...)
	return uint64(k)<<32 | uint64(len(c))<<16 | uint64(len(s))
}

// rehash rebuilds the probe table with size slots, placing ids in id order.
func (t *strtab) rehash(size int) {
	t.slots = make([]uint32, size)
	mask := size - 1
	for id, r := range t.refs {
		if r&deadRef != 0 {
			continue
		}
		i := t.hash(strAt(t.chunks, r)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(id) + 1
	}
}

// remove drops the strings of ids, one or more and all held, and frees the
// ids. Strings already handed out stay as they are.
func (t *strtab) remove(ids ...uint32) {
	lo, hi := t.str(ids[0]), t.str(ids[0])
	for _, id := range ids {
		s := t.str(id)
		t.unlink(s, id)
		t.refs[id] |= deadRef
		t.n--
		t.live -= len(s)
		t.dead += len(s)
		lo, hi = min(lo, s), max(hi, s)
	}
	if v := t.view; v != nil {
		// Cut the removed ids out of the span of the view that holds them:
		// a freed id left in the view would sit at its old string's place
		// once intern reuses it.
		a := t.search(v, lo)
		b := sort.Search(len(v), func(i int) bool { return t.str(v[i]) > hi })
		kept := slices.DeleteFunc(v[a:b], t.removed)
		t.view = slices.Delete(v, a+len(kept), b)
	}
	t.free = append(t.free, ids...)
	if t.dead >= minCompactBytes && t.dead > t.live {
		t.compact()
	}
}

// unlink takes id, whose string is s, out of the probe table by backward
// shift: each later entry of the probe run moves into the hole unless the
// hole lies before its home slot, so no tombstone is ever left.
func (t *strtab) unlink(s string, id uint32) {
	mask := len(t.slots) - 1
	i := t.hash(s) & mask
	for t.slots[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := t.hash(t.str(t.slots[j]-1)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}

// compact copies the held strings, in id order, into fresh chunks and
// leaves the removed ones behind. The old chunks live on only as long as
// strings handed out from them.
func (t *strtab) compact() {
	old := t.chunks
	t.chunks = nil
	for id, r := range t.refs {
		if r&deadRef != 0 {
			t.refs[id] = deadRef
		} else {
			t.refs[id] = t.place(strAt(old, r))
		}
	}
	t.dead = 0
}

// sorted returns every held id in ascending order of its string. The slice
// is the view itself: callers read it under the lock that guards the table
// and keep it no longer.
func (t *strtab) sorted() []uint32 {
	if t.view == nil {
		t.view = make([]uint32, 0, t.n)
		for id, r := range t.refs {
			if r&deadRef == 0 {
				t.view = append(t.view, uint32(id))
			}
		}
		slices.SortFunc(t.view, t.compare)
		return t.view
	}
	if len(t.added) == 0 {
		return t.view
	}
	// The ids to insert: still held, sorted, each once (an id removed and
	// reused since the last read is listed twice). None is in the view: a
	// reused id was cut out when it was removed.
	add := slices.DeleteFunc(t.added, t.removed)
	slices.SortFunc(add, t.compare)
	add = slices.Compact(add)
	n := len(t.view)
	v := slices.Grow(t.view, len(add))[:n+len(add)]
	for i, j, w := n-1, len(add)-1, n+len(add)-1; j >= 0; w-- {
		if i >= 0 && t.compare(v[i], add[j]) > 0 {
			v[w] = v[i]
			i--
		} else {
			v[w] = add[j]
			j--
		}
	}
	t.view, t.added = v, t.added[:0]
	return v
}

func (t *strtab) compare(a, b uint32) int { return strings.Compare(t.str(a), t.str(b)) }

// search returns the first position in ids, ascending by string, whose
// string is not below s.
func (t *strtab) search(ids []uint32, s string) int {
	return sort.Search(len(ids), func(i int) bool { return t.str(ids[i]) >= s })
}

// span returns the positions of ids, ascending by string, whose strings
// satisfy op bound: a LIKE prefix or an ordering comparison.
func (t *strtab) span(ids []uint32, op, bound string) (lo, hi int) {
	switch op {
	case "like":
		lo = t.search(ids, bound)
		return lo, lo + sort.Search(len(ids)-lo, func(i int) bool { return !strings.HasPrefix(t.str(ids[lo+i]), bound) })
	case ">":
		return t.search(ids, bound+"\x00"), len(ids)
	case ">=":
		return t.search(ids, bound), len(ids)
	case "<":
		return 0, t.search(ids, bound)
	case "<=":
		return 0, t.search(ids, bound+"\x00")
	}
	return 0, 0
}
