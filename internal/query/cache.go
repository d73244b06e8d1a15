package query

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// Cache is the client-side versioned read-through cache that sits under the
// database executor. It exploits the one-row-per-version naming scheme of
// §4.3.2: an item named uuid_version is immutable once its transaction
// committed, so item-body entries never need invalidation. Three entry
// kinds share one bounded LRU:
//
//	item/<uuid_version>        one node's bundle        immutable
//	vers/<uuid>                all versions of an object observation
//	kids/<uuid_version>        input-edge children       observation
//	attr/<a>=<v>&...           attribute-match root set  observation
//
// The observation kinds cache *query results* (which refs exist, which items
// reference a ref), and those sets can grow as new provenance commits. A
// cached observation is therefore exactly an eventually consistent read — an
// older but once-true view, the same semantics every uncached SELECT in this
// system already has. Two mechanisms tighten that:
//
//   - Subscription (Engine.Subscribe): the cache attaches to the
//     deployment's commit bus and every committed transaction invalidates
//     exactly the observations it touches — the vers/ set of each written
//     item's uuid, the kids/ set of each ref the item names as an input,
//     and every attr/ root set whose predicate the item satisfies. A
//     subscribed warm cache is coherent for live data: an observation it
//     serves reflects every acknowledged commit.
//   - Epoch tagging: observations remember the directory epoch they were
//     read under. An unsubscribed cache drops an observation whose epoch no
//     longer matches the executing view's — a reshard cutover changed the
//     placement it was derived through — instead of serving a pre-cutover
//     set. Subscribed caches serve across epochs: notices keep the entries
//     precise regardless of placement.
//
// Cache is safe for concurrent use. Values handed out are shared, not
// copied: treat cached bundles and ref slices as read-only.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64

	// attrKeys registers each live attr/ observation's predicate so a
	// commit notice can be matched against it precisely.
	attrKeys map[string][]AttrMatch

	// Coherence state (see Engine.Subscribe).
	subscribed    bool
	coherenceHits int64
	invalidations int64
	epochFlushes  int64
}

// DefaultCacheEntries is the capacity NewCache(0) provides.
const DefaultCacheEntries = 4096

// cacheEntry is one LRU slot. Observation entries carry the directory epoch
// they were read under; immutable item entries need none.
type cacheEntry struct {
	key   string
	val   any
	obs   bool
	epoch int
}

// NewCache returns an empty cache bounded to capacity entries (0 or
// negative means DefaultCacheEntries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element, capacity),
		attrKeys: make(map[string][]AttrMatch),
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int

	// Subscribed reports whether the cache is attached to a commit bus.
	Subscribed bool
	// CoherenceHits counts hits on observation entries served while
	// subscribed — reads the invalidation protocol kept safe.
	CoherenceHits int64
	// Invalidations counts entries dropped by commit notices.
	Invalidations int64
	// EpochFlushes counts observations dropped because a reshard cutover
	// changed the directory epoch under them.
	EpochFlushes int64
}

// Stats returns the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       len(c.entries),
		Subscribed:    c.subscribed,
		CoherenceHits: c.coherenceHits,
		Invalidations: c.invalidations,
		EpochFlushes:  c.epochFlushes,
	}
}

// Flush drops every entry (counters survive). It is the coarse invalidation
// for callers that committed new provenance and need observations refreshed.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element, c.cap)
	c.attrKeys = make(map[string][]AttrMatch)
	c.mu.Unlock()
}

// removeLocked unlinks one entry and its attr-predicate registration.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	delete(c.attrKeys, e.key)
}

// lookup returns the cached value for key, counting a hit or miss. A nil
// cache always misses without counting. Immutable item entries only.
func (c *Cache) lookup(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// has reports whether an item entry is present without counting a hit or
// miss or refreshing its recency: a prefetch asks it before deciding to
// fetch, not because a query read the item.
func (c *Cache) has(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// lookupObs returns a cached observation, applying the coherence guard:
// unsubscribed caches drop entries from another directory epoch (the
// reshard-straddle case); subscribed caches serve unconditionally — the
// invalidation protocol keeps them right.
func (c *Cache) lookupObs(key string, epoch int) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !c.subscribed && e.epoch != epoch {
		c.removeLocked(el)
		c.epochFlushes++
		c.misses++
		return nil, false
	}
	c.hits++
	if c.subscribed {
		c.coherenceHits++
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// storeBundle inserts or refreshes an immutable item entry: a copy of b
// owning its records, never pinning the slab b was decoded into.
func (c *Cache) storeBundle(key string, b *prov.Bundle) {
	own := *b
	own.Records = slices.Clone(b.Records)
	c.storeEntry(key, &own, false, 0, nil)
}

// storeObs inserts or refreshes an observation read under epoch; an
// attribute-root observation registers its predicate ms for precise
// invalidation.
func (c *Cache) storeObs(key string, val any, epoch int, ms []AttrMatch) {
	c.storeEntry(key, val, true, epoch, ms)
}

func (c *Cache) storeEntry(key string, val any, obs bool, epoch int, ms []AttrMatch) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ms != nil {
		c.attrKeys[key] = ms
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.obs, e.epoch = val, obs, epoch
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, obs: obs, epoch: epoch})
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// attach puts the cache in subscribed mode. Observations cached before the
// subscription may already have missed invalidations, so they are dropped:
// coherence starts from a known point.
func (c *Cache) attach() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		if el.Value.(*cacheEntry).obs {
			c.removeLocked(el)
		}
	}
	c.subscribed = true
}

// detach returns the cache to unsubscribed (eventually consistent)
// operation; entries kept are valid as of the detach and age from there
// under the epoch guard.
func (c *Cache) detach() {
	c.mu.Lock()
	c.subscribed = false
	c.mu.Unlock()
}

// applyNotice invalidates exactly the observations one committed transaction
// group touched and returns how many entries were dropped. Item bodies are
// immutable and never touched; a redelivered (idempotently re-committed)
// transaction re-drops nothing. Items in this system are written once per
// version, so a notice's attributes are the item's final attributes — an
// attr/ observation is dropped iff the new item belongs in its root set.
func (c *Cache) applyNotice(n core.CommitNotice) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	// The vers/ and kids/ keys are built in one stack buffer and looked up
	// without converting them to strings.
	var buf [128]byte
	drop := func(key []byte) {
		if el, ok := c.entries[string(key)]; ok {
			c.removeLocked(el)
			dropped++
		}
	}
	for _, it := range n.Items {
		// The item is a new version of its object: the uuid's version set
		// grew.
		if ref, err := prov.ParseRef(it.Name); err == nil {
			drop(ref.UUID.AppendTo(append(buf[:0], versPrefix...)))
		}
		// Each input edge makes the item a new child of the referenced ref.
		for _, a := range it.Attrs {
			if a.Name == prov.AttrInput {
				drop(append(append(buf[:0], kidsPrefix...), a.Value...))
			}
		}
		// Any registered attribute root set the item satisfies gained a
		// member.
		for key, ms := range c.attrKeys {
			if el, ok := c.entries[key]; ok && noticeMatches(it.Attrs, ms) {
				c.removeLocked(el)
				dropped++
			}
		}
	}
	c.invalidations += dropped
	return dropped
}

// noticeMatches reports whether an item's written attributes satisfy every
// equality of an attr/ observation's predicate (SimpleDB semantics: any
// value of a multi-valued attribute may match).
func noticeMatches(attrs []sdb.Attr, ms []AttrMatch) bool {
	for _, m := range ms {
		if !slices.Contains(attrs, sdb.Attr{Name: m.Attr, Value: m.Value}) {
			return false
		}
	}
	return true
}

// Key builders. Item names are globally unique (uuid_version) so the short
// prefixes cannot collide across kinds.

const (
	versPrefix = "vers/"
	kidsPrefix = "kids/"
)

func itemKey(name string) string { return "item/" + name }
func versKey(u uuid.UUID) string { return versPrefix + u.String() }
func kidsKey(r prov.Ref) string  { return kidsPrefix + r.String() }

// attrKey length-prefixes each component: attribute values are arbitrary
// strings, so a separator-joined key would let distinct predicates collide
// (e.g. {"name","x&type=proc"} vs {"name","x"},{"type","proc"}).
func attrKey(ms []AttrMatch) string {
	var b strings.Builder
	b.WriteString("attr/")
	for _, m := range ms {
		fmt.Fprintf(&b, "%d:%s%d:%s", len(m.Attr), m.Attr, len(m.Value), m.Value)
	}
	return b.String()
}
