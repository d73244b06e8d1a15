package sdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"passcloud/internal/sim"
)

// refVersion is one version in the two-slot reference model.
type refVersion struct {
	attrs     []Attr
	visibleAt time.Duration
	deleted   bool
}

// refItem is the reference model's record of one item: both retained
// versions inline, oldest first, as the store kept them before the older one
// moved out of line.
type refItem struct {
	hist  [2]refVersion
	n     int
	stamp int // the push that made hist[n-1]
	shard int
}

// refTomb is a delete waiting to be reaped.
type refTomb struct {
	name      string
	stamp     int
	shard     int
	visibleAt time.Duration
}

// refStore is the reference model of a domain set's eventual consistency:
// the two-slot observe, trim and reap logic, drawing from its own copy of
// the environment's random stream.
type refStore struct {
	rnd    *sim.Rand
	mean   time.Duration
	items  map[string]*refItem
	tombs  []refTomb
	pushes int
	both   int // reads that found two versions not yet visible and drew both coins
}

// trim keeps the newest version only.
func (it *refItem) trim() {
	if it.n > 1 {
		it.hist[0], it.hist[1] = it.hist[1], refVersion{}
		it.n = 1
	}
}

// push makes v the newest version of it, stamped with the push count.
func (m *refStore) push(it *refItem, v refVersion) {
	it.hist[it.n] = v
	it.n++
	m.pushes++
	it.stamp = m.pushes
}

// reap drops the items of shard whose tombstone is visible by now and is
// still their latest write.
func (m *refStore) reap(now time.Duration, shard int) {
	m.tombs = slices.DeleteFunc(m.tombs, func(t refTomb) bool {
		if t.shard != shard || t.visibleAt > now {
			return false
		}
		if it := m.items[t.name]; it != nil && it.stamp == t.stamp {
			delete(m.items, t.name)
		}
		return true
	})
}

func (m *refStore) put(now time.Duration, shard int, req PutRequest) {
	m.reap(now, shard)
	it := m.items[req.Item]
	if it == nil {
		it = &refItem{shard: shard}
		m.items[req.Item] = it
	}
	it.trim()
	var attrs []Attr
	if last := it.hist[max(it.n-1, 0)]; it.n > 0 && !last.deleted {
		for _, a := range last.attrs {
			if !req.Replace || !slices.ContainsFunc(req.Attrs, func(b Attr) bool { return b.Name == a.Name }) {
				attrs = append(attrs, a)
			}
		}
	}
	m.push(it, refVersion{attrs: append(attrs, req.Attrs...), visibleAt: now + m.rnd.Exp(m.mean)})
}

func (m *refStore) del(now time.Duration, shard int, names []string) {
	for _, name := range names {
		it := m.items[name]
		if it == nil {
			continue
		}
		it.trim()
		m.push(it, refVersion{visibleAt: now + m.rnd.Exp(m.mean), deleted: true})
		m.tombs = append(m.tombs, refTomb{name: name, stamp: it.stamp, shard: shard, visibleAt: it.hist[it.n-1].visibleAt})
	}
	m.reap(now, shard)
}

// observe is the two-slot read: step back past a version not yet visible on
// a coin, and past the oldest not yet visible on a second coin, to nothing.
func (m *refStore) observe(now time.Duration, name string) ([]Attr, bool) {
	it := m.items[name]
	if it == nil {
		return nil, false
	}
	idx := it.n - 1
	for idx > 0 && it.hist[idx].visibleAt > now && m.rnd.Bool(0.5) {
		idx--
	}
	v := it.hist[idx]
	if idx == 0 && it.n == 2 && v.visibleAt > now {
		m.both++
	}
	if idx == 0 && v.visibleAt > now && m.rnd.Bool(0.5) {
		return nil, false
	}
	if v.deleted {
		return nil, false
	}
	return v.attrs, true
}

// read resolves name on shard d as a read does, under the domain's lock.
func read(d *Domain, name string) ([]Attr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, held, _ := d.items.lookup(name)
	if !held {
		return nil, false
	}
	v := d.observe(id, d.env.Now(), false)
	if v.deleted() {
		return nil, false
	}
	return d.appendAttrs(nil, v), true
}

// TestObserveMatchesTwoSlotModel drives a K-way domain set at K=1 and K=4
// through a seeded mix of puts (appends and replaces), deletes, reaps,
// single-item reads and whole-shard scans, with the clock stepping both
// inside and past the staleness window, beside a reference model of the
// two-slot history. Every read must see what the model sees, and the
// environment's random stream must end where the model's copy does, so the
// store draws the same coins in the same order: the newer version's coin
// first, then the older one's.
func TestObserveMatchesTwoSlotModel(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Seed = 977
			env := sim.NewEnv(cfg)
			set := NewSet(env, "prov", k)
			shards := set.View().shards
			m := &refStore{rnd: sim.NewRand(cfg.Seed), mean: env.Config().StalenessMean, items: make(map[string]*refItem)}
			rnd := rand.New(rand.NewSource(int64(k)))
			name := func() string { return fmt.Sprintf("%04d_1", rnd.Intn(24)) }
			reads := 0
			for step := range 20_000 {
				now := env.Now()
				switch op := rnd.Intn(100); {
				case op < 35:
					req := PutRequest{Item: name(), Replace: rnd.Intn(2) == 0}
					for range 1 + rnd.Intn(3) {
						req.Attrs = append(req.Attrs, Attr{Name: fmt.Sprint("a", rnd.Intn(3)), Value: fmt.Sprint(rnd.Intn(5))})
					}
					sh := set.ShardForItem(req.Item)
					d := shards[sh]
					d.mu.Lock()
					d.applyLocked(req)
					d.mu.Unlock()
					m.put(now, sh, req)
				case op < 45:
					names := []string{name(), name()}
					for sh, d := range shards {
						var mine []string
						for _, n := range names {
							if set.ShardForItem(n) == sh {
								mine = append(mine, n)
							}
						}
						d.deleteItems(mine...)
						m.del(now, sh, mine)
					}
				case op < 48:
					sh := rnd.Intn(k)
					d := shards[sh]
					d.mu.Lock()
					d.reapLocked(now)
					d.mu.Unlock()
					m.reap(now, sh)
				case op < 95:
					n := name()
					got, ok := read(shards[set.ShardForItem(n)], n)
					want, wok := m.observe(now, n)
					if ok != wok || !slices.Equal(got, want) {
						t.Fatalf("step %d: read %s = %v %v, the model reads %v %v", step, n, got, ok, want, wok)
					}
					reads++
				default:
					sh := rnd.Intn(k)
					d := shards[sh]
					d.mu.Lock()
					d.reapLocked(now)
					var names []string
					for _, id := range d.items.sorted() {
						names = append(names, d.items.str(id))
					}
					d.mu.Unlock()
					m.reap(now, sh)
					var held []string
					for n, it := range m.items {
						if it.shard == sh {
							held = append(held, n)
						}
					}
					slices.Sort(held)
					if !slices.Equal(names, held) {
						t.Fatalf("step %d: shard %d holds %v, the model %v", step, sh, names, held)
					}
					for _, n := range names {
						got, ok := read(d, n)
						want, wok := m.observe(now, n)
						if ok != wok || !slices.Equal(got, want) {
							t.Fatalf("step %d: scan of shard %d reads %s = %v %v, the model reads %v %v", step, sh, n, got, ok, want, wok)
						}
						reads++
					}
				}
				if rnd.Intn(50) == 0 {
					env.Clock().Advance(5 * m.mean) // past every window
				} else {
					env.Clock().Advance(time.Duration(rnd.Int63n(int64(m.mean / 32))))
				}
			}
			for range 4 {
				if got, want := env.Rand().Float64(), m.rnd.Float64(); got != want {
					t.Fatalf("the environment's stream ended elsewhere than the model's: next draw %v, want %v", got, want)
				}
			}
			t.Logf("%d reads, %d of them drew both coins", reads, m.both)
			if m.both < 100 {
				t.Fatalf("only %d reads drew both coins, want 100 or more", m.both)
			}
		})
	}
}
