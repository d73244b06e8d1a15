package sim

import (
	"fmt"
	"strings"
	"testing"
)

// epochChain builds the epoch sequence an actual fleet would walk:
// 1 → 2 → 4 → 8 shards, each step through BeginMigration+Cutover.
func epochChain(t testing.TB, widths []int) []DirEpoch {
	t.Helper()
	d := NewDirectory(widths[0])
	epochs := []DirEpoch{d.Active()}
	for _, k := range widths[1:] {
		if _, _, done := d.BeginMigration(k); done {
			t.Fatalf("migration to %d reported done", k)
		}
		d.Cutover()
		epochs = append(epochs, d.Active())
	}
	return epochs
}

// checkEpochInvariants verifies structural sanity of one epoch: ranges
// sorted, starting at 0, every shard id in [0, Shards), every shard owning
// at least one range.
func checkEpochInvariants(t *testing.T, e DirEpoch) {
	t.Helper()
	if len(e.Ranges) == 0 || e.Ranges[0].Start != 0 {
		t.Fatalf("epoch %d: ranges do not cover the space from 0: %+v", e.ID, e.Ranges)
	}
	owned := make(map[int]bool)
	for i, r := range e.Ranges {
		if i > 0 && r.Start <= e.Ranges[i-1].Start {
			t.Fatalf("epoch %d: ranges not strictly sorted at %d", e.ID, i)
		}
		if r.Shard < 0 || r.Shard >= e.Shards {
			t.Fatalf("epoch %d: range %d owned by out-of-width shard %d", e.ID, i, r.Shard)
		}
		owned[r.Shard] = true
	}
	if len(owned) != e.Shards {
		t.Fatalf("epoch %d: only %d of %d shards own a range", e.ID, len(owned), e.Shards)
	}
}

// TestDirectoryGrowMinimalMovement pins the consistent-hashing property of
// grow transitions: a key either keeps its home or moves to a brand-new
// shard — keys never shuffle among pre-existing shards.
func TestDirectoryGrowMinimalMovement(t *testing.T) {
	epochs := epochChain(t, []int{1, 2, 4, 8, 13})
	for _, e := range epochs {
		checkEpochInvariants(t, e)
	}
	for i := 1; i < len(epochs); i++ {
		old, next := epochs[i-1], epochs[i]
		moved := 0
		for k := 0; k < 5000; k++ {
			key := fmt.Sprintf("%08x-dead-4bee-8f00-%012x", k, k*7919)
			a, b := old.Route(key), next.Route(key)
			if a != b {
				moved++
				if b < old.Shards {
					t.Fatalf("%d->%d: key %s shuffled between old shards %d->%d", old.Shards, next.Shards, key, a, b)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("%d->%d: no key moved (new shards own nothing)", old.Shards, next.Shards)
		}
		// Bounded movement: roughly (K'-K)/K' of the space moves.
		frac := float64(moved) / 5000
		want := float64(next.Shards-old.Shards) / float64(next.Shards)
		if frac > want*1.5 {
			t.Errorf("%d->%d: %.2f of keys moved, want about %.2f", old.Shards, next.Shards, frac, want)
		}
	}
}

// TestDirectoryShrinkMinimalMovement pins the mirror property for merges:
// only keys on decommissioned shards move, and they land on survivors.
func TestDirectoryShrinkMinimalMovement(t *testing.T) {
	d := NewDirectory(8)
	old := d.Active()
	if _, _, done := d.BeginMigration(3); done {
		t.Fatal("8->3 reported done")
	}
	next := d.Cutover()
	checkEpochInvariants(t, next)
	for k := 0; k < 5000; k++ {
		key := fmt.Sprintf("%08x-beef-4add-9f00-%012x", k, k*104729)
		a, b := old.Route(key), next.Route(key)
		if a < next.Shards && a != b {
			t.Fatalf("8->3: key %s moved off surviving shard %d to %d", key, a, b)
		}
		if a >= next.Shards && b >= next.Shards {
			t.Fatalf("8->3: key %s still routed to decommissioned shard %d", key, b)
		}
	}
}

// TestDirectoryHomesCoverBothEpochs pins the double-write window contract:
// during a migration, Homes(key) contains both the active and the target
// route, active first, deduplicated.
func TestDirectoryHomesCoverBothEpochs(t *testing.T) {
	d := NewDirectory(2)
	target, resumed, done := d.BeginMigration(4)
	if resumed || done {
		t.Fatalf("fresh migration reported resumed=%v done=%v", resumed, done)
	}
	active := d.Active()
	for k := 0; k < 2000; k++ {
		key := fmt.Sprintf("%08x-aaaa-4bbb-8ccc-%012x", k, k*31)
		hs := d.Homes(key)
		homes := hs.List()
		a, tg := active.Route(key), target.Route(key)
		if homes[0] != a {
			t.Fatalf("key %s: homes %v do not lead with active route %d", key, homes, a)
		}
		found := false
		for _, h := range homes {
			if h == tg {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %s: homes %v miss target route %d", key, homes, tg)
		}
		if a == tg && len(homes) != 1 {
			t.Fatalf("key %s: unmoved key has %d homes", key, len(homes))
		}
		if n := RouteNewestFor(d.active, d.target, key); n != tg {
			t.Fatalf("key %s: RouteNewestFor %d != target route %d", key, n, tg)
		}
	}
	// Resume semantics: re-opening the same migration resumes it.
	if _, resumed, _ := d.BeginMigration(4); !resumed {
		t.Fatal("re-begin of open migration did not resume")
	}
	d.Cutover()
	if d.Migrating() {
		t.Fatal("still migrating after cutover")
	}
	if got := d.Active().ID; got != 1 {
		t.Fatalf("active epoch id = %d after one transition, want 1", got)
	}
	// Homes collapses to the single active route again.
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("key-%d", k)
		if hs := d.Homes(key); len(hs.List()) != 1 || hs[0] != d.Route(key) {
			t.Fatalf("stable Homes(%s) = %v", key, hs)
		}
	}
}

// TestDirectorySnapshotRoundTrip pins the persistence format: a directory
// restored from its snapshot routes identically, mid-migration included.
func TestDirectorySnapshotRoundTrip(t *testing.T) {
	d := NewDirectory(2)
	d.BeginMigration(4)
	r := RestoreDirectory(d.Snapshot())
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("snap-%d", k)
		if d.Route(key) != r.Route(key) || RouteNewestFor(d.active, d.target, key) != RouteNewestFor(r.active, r.target, key) {
			t.Fatalf("restored directory routes %s differently", key)
		}
	}
	if !r.Migrating() {
		t.Fatal("restored directory lost the open migration")
	}
}

// FuzzDirectoryRoute fuzzes the three routing properties every epoch
// transition must preserve:
//
//	(a) all versions of an object co-shard in every epoch (routing sees the
//	    uuid, so uuid_version names agree for any version suffix);
//	(b) route(uuid) is stable for uuids outside the moved range — a grow
//	    never shuffles keys among pre-existing shards, a shrink never moves
//	    keys off survivors;
//	(c) during the migration the old and new epoch homes always cover the
//	    key (the double-write/union-read window hides the copy).
func FuzzDirectoryRoute(f *testing.F) {
	f.Add("8a64ae2c-0000-4000-8000-000000000000", uint8(1), uint8(4), uint16(1), uint16(9))
	f.Add("", uint8(2), uint8(2), uint16(0), uint16(65535))
	f.Add("ffffffff-ffff-ffff-ffff-ffffffffffff", uint8(64), uint8(1), uint16(3), uint16(3))
	f.Add("short", uint8(3), uint8(7), uint16(12), uint16(120))
	f.Fuzz(func(t *testing.T, uuid string, k1, k2 uint8, verA, verB uint16) {
		// Item names are uuid_version and uuids never contain '_' — strip it
		// so the fuzzed key obeys the name grammar the router is defined on.
		uuid = strings.ReplaceAll(uuid, "_", "-")
		fromK := int(k1%64) + 1
		toK := int(k2%64) + 1
		d := NewDirectory(fromK)
		active := d.Active()
		target, _, done := d.BeginMigration(toK)
		if done != (fromK == toK) {
			t.Fatalf("BeginMigration(%d->%d) done=%v", fromK, toK, done)
		}

		// (a) versions co-shard: the route of any uuid_version item equals
		// the route of the bare uuid in both epochs.
		itemA := fmt.Sprintf("%s_%d", uuid, verA)
		itemB := fmt.Sprintf("%s_%d", uuid, verB)
		routeOf := func(e DirEpoch, item string) int {
			key := item
			for i := 0; i < len(item); i++ {
				if item[i] == '_' {
					key = item[:i]
					break
				}
			}
			return e.Route(key)
		}
		for _, e := range []DirEpoch{active, target} {
			if routeOf(e, itemA) != routeOf(e, itemB) || routeOf(e, itemA) != e.Route(uuid) {
				t.Fatalf("versions of %q split across shards in epoch %d", uuid, e.ID)
			}
		}

		a, b := active.Route(uuid), target.Route(uuid)
		if a < 0 || a >= fromK || b < 0 || b >= toK {
			t.Fatalf("route out of width: active=%d/%d target=%d/%d", a, fromK, b, toK)
		}

		// (b) stability outside the moved range.
		switch {
		case toK > fromK:
			if a != b && b < fromK {
				t.Fatalf("grow %d->%d shuffled %q between old shards %d->%d", fromK, toK, uuid, a, b)
			}
		case toK < fromK:
			if a < toK && a != b {
				t.Fatalf("shrink %d->%d moved %q off surviving shard %d to %d", fromK, toK, uuid, a, b)
			}
		default:
			if a != b {
				t.Fatalf("no-op migration moved %q: %d->%d", uuid, a, b)
			}
		}

		// (c) the double-write window covers the key in both epochs.
		if !done {
			hs := d.Homes(uuid)
			homes := hs.List()
			hasA, hasB := false, false
			for _, h := range homes {
				hasA = hasA || h == a
				hasB = hasB || h == b
			}
			if !hasA || !hasB {
				t.Fatalf("homes %v of %q miss a route (active %d, target %d)", homes, uuid, a, b)
			}
			if len(homes) > 2 {
				t.Fatalf("homes %v larger than the two epochs", homes)
			}
		}
	})
}
