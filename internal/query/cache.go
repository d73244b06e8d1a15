package query

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
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
// system already has. Three mechanisms tighten that:
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
//   - Bounded staleness (Engine.SetStalenessBound): a disconnected engine
//     can cap how old a served observation may be on the simulated clock;
//     entries past the bound are dropped on lookup. Entries stored before
//     the bound was armed carry no timestamp and are treated as over-age.
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

	// Coherence state (see Engine.Subscribe / SetStalenessBound).
	subscribed    bool
	busSeq        func() int64 // bus head reader while subscribed
	meter         *sim.Meter   // coherence-hit accounting while subscribed
	lastSeq       int64        // last notice sequence applied
	bound         time.Duration
	now           func() time.Duration
	coherenceHits int64
	invalidations int64
	epochFlushes  int64
	expired       int64
	staleServes   int64
}

// DefaultCacheEntries is the capacity NewCache(0) provides.
const DefaultCacheEntries = 4096

// cacheEntry is one LRU slot. Observation entries carry the directory epoch
// they were read under and their store time on the simulated clock;
// immutable item entries need neither.
type cacheEntry struct {
	key      string
	val      any
	obs      bool
	epoch    int
	storedAt time.Duration
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
	// Expired counts observations dropped past the staleness bound.
	Expired int64
	// StaleServes counts observation hits served under the bounded-staleness
	// allowance (unsubscribed, within the bound).
	StaleServes int64
	// SubscriptionLag is the distance between the bus head and the last
	// notice applied (0 for the synchronous in-process bus).
	SubscriptionLag int64
}

// Stats returns the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	// Read the bus head before taking the cache lock: the bus calls into the
	// cache under its own lock on publish, so the reverse order would invert
	// lock acquisition.
	c.mu.Lock()
	head := c.busSeq
	c.mu.Unlock()
	var headSeq int64 = -1
	if head != nil {
		headSeq = head()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       len(c.entries),
		Subscribed:    c.subscribed,
		CoherenceHits: c.coherenceHits,
		Invalidations: c.invalidations,
		EpochFlushes:  c.epochFlushes,
		Expired:       c.expired,
		StaleServes:   c.staleServes,
	}
	if c.subscribed && headSeq > c.lastSeq {
		s.SubscriptionLag = headSeq - c.lastSeq
	}
	return s
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

// lookupObs returns a cached observation, applying the coherence guards:
// unsubscribed caches drop entries from another directory epoch (the
// reshard-straddle case) and entries past the staleness bound; subscribed
// caches serve unconditionally — the invalidation protocol keeps them right.
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
	if !c.subscribed {
		if e.epoch != epoch {
			c.removeLocked(el)
			c.epochFlushes++
			c.misses++
			return nil, false
		}
		if c.bound > 0 && c.now != nil && c.now()-e.storedAt > c.bound {
			c.removeLocked(el)
			c.expired++
			c.misses++
			return nil, false
		}
	}
	c.hits++
	if c.subscribed {
		c.coherenceHits++
		if c.meter != nil {
			c.meter.CountCoherenceHit()
		}
	} else if c.bound > 0 {
		c.staleServes++
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// store inserts or refreshes an immutable item entry.
func (c *Cache) store(key string, val any) {
	c.storeEntry(key, val, false, 0, nil)
}

// storeObs inserts or refreshes an observation read under epoch.
func (c *Cache) storeObs(key string, val any, epoch int) {
	c.storeEntry(key, val, true, epoch, nil)
}

// storeAttrObs inserts an attribute-root observation, registering its
// predicate for precise invalidation.
func (c *Cache) storeAttrObs(key string, val any, epoch int, ms []AttrMatch) {
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
		if c.now != nil {
			e.storedAt = c.now()
		}
		c.ll.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, val: val, obs: obs, epoch: epoch}
	if c.now != nil {
		e.storedAt = c.now()
	}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// attach puts the cache in subscribed mode. Observations cached before the
// subscription may already have missed invalidations, so they are dropped:
// coherence starts from a known point.
func (c *Cache) attach(busSeq func() int64, m *sim.Meter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		if el.Value.(*cacheEntry).obs {
			c.removeLocked(el)
		}
	}
	c.subscribed = true
	c.busSeq = busSeq
	c.meter = m
	if busSeq != nil {
		c.lastSeq = busSeq()
	}
}

// detach returns the cache to unsubscribed (eventually consistent)
// operation; entries kept are valid as of the detach and age from there
// under the epoch and staleness guards.
func (c *Cache) detach() {
	c.mu.Lock()
	c.subscribed = false
	c.busSeq = nil
	c.meter = nil
	c.mu.Unlock()
}

// setBound arms (or with 0 disarms) the bounded-staleness guard; now reads
// the simulated clock.
func (c *Cache) setBound(d time.Duration, now func() time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bound = d
	c.now = now
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
	c.lastSeq = n.Seq
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
		ok := false
		for _, a := range attrs {
			if a.Name == m.Attr && a.Value == m.Value {
				ok = true
				break
			}
		}
		if !ok {
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
