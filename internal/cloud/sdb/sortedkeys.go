package sdb

import (
	"slices"
	"sort"
)

// sortedKeys caches the ascending keys of one map (the item table, an
// attribute's value set) across writes. A new key does not discard the
// table: it waits in added, and the next read sorts the few keys added since
// the last one and merges them in, backwards and in place, in one pass. A
// removed key only marks the table for one filtering pass on the next read.
// The owner holds a *sortedKeys that stays nil until the first read, and
// while nothing is cached a write does no work at all.
type sortedKeys struct {
	keys  []string // ascending; nil when not cached
	added []string // keys added since keys was current: unsorted, maybe duplicated or removed again
	gone  bool     // some key in keys may have been removed from the map
}

// add records that key was added to the map.
func (s *sortedKeys) add(key string) {
	if s == nil || s.keys == nil {
		return
	}
	if len(s.added) >= max(len(s.keys), 64) {
		// More new keys than the table holds: sorting afresh on the next
		// read costs no more than the merge, and the backlog stops growing.
		*s = sortedKeys{}
		return
	}
	s.added = append(s.added, key)
}

// remove records that a key was removed from the map.
func (s *sortedKeys) remove() {
	if s != nil && s.keys != nil {
		s.gone = true
	}
}

// sortedOf returns the ascending keys of m, which every add and remove on *s
// has reported on, caching them in *s. The slice is the cache itself: callers
// read it under the lock that guards m and keep it no longer.
func sortedOf[V any](s **sortedKeys, m map[string]V) []string {
	if *s == nil {
		*s = &sortedKeys{}
	}
	c := *s
	if c.keys == nil {
		c.keys = make([]string, 0, len(m))
		for k := range m {
			c.keys = append(c.keys, k)
		}
		sort.Strings(c.keys)
		return c.keys
	}
	held := func(k string) bool { _, ok := m[k]; return ok }
	if c.gone {
		c.keys = slices.DeleteFunc(c.keys, func(k string) bool { return !held(k) })
		c.gone = false
	}
	if len(c.added) == 0 {
		return c.keys
	}
	// The keys to insert: sorted, each once, still held and not already in
	// the table (a key removed and added back before this read is both).
	add := c.added
	sort.Strings(add)
	add = slices.Compact(add)
	add = slices.DeleteFunc(add, func(k string) bool {
		_, found := slices.BinarySearch(c.keys, k)
		return found || !held(k)
	})
	n := len(c.keys)
	keys := slices.Grow(c.keys, len(add))[:n+len(add)]
	for i, j, w := n-1, len(add)-1, n+len(add)-1; j >= 0; w-- {
		if i >= 0 && keys[i] > add[j] {
			keys[w] = keys[i]
			i--
		} else {
			keys[w] = add[j]
			j--
		}
	}
	clear(c.added)
	c.keys, c.added = keys, c.added[:0]
	return keys
}
