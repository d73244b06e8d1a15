package translog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// randString draws a string of up to 12 pieces, each an ordinary byte, a
// byte encoding/json escapes, a multi-byte rune, a line separator or a
// stray byte that is not UTF-8.
func randString(rnd *sim.Rand) string {
	pieces := []string{
		"a", "Z", "0", "_", "-", " ", "/", "\x7f", // passed through
		`"`, `\`, "<", ">", "&", // escaped
		"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", // control bytes
		"\u00e9", "\u6f22", "\U0001f642", "\ufffd", // valid multi-byte runes
		"\u2028", "\u2029", // JavaScript line separators
		"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", // invalid UTF-8
	}
	var b strings.Builder
	for n := rnd.Intn(13); n > 0; n-- {
		b.WriteString(pieces[rnd.Intn(len(pieces))])
	}
	return b.String()
}

// TestLeafEncodingMatchesJSON checks the leaf appender against
// json.Marshal on seeded leaves: odd strings in every string field, an
// empty Closure (omitted), nil Items (null), empty non-nil Items ([]),
// negative and large numbers.
func TestLeafEncodingMatchesJSON(t *testing.T) {
	rnd := sim.NewRand(20100223)
	for i := 0; i < 5000; i++ {
		lf := Leaf{
			Index:    rnd.Intn(1 << 20),
			Txn:      randString(rnd),
			Epoch:    rnd.Intn(100) - 50,
			SimNanos: rnd.Int63() - rnd.Int63(),
		}
		if rnd.Intn(3) != 0 {
			lf.Closure = randString(rnd)
		}
		switch rnd.Intn(4) {
		case 0: // nil
		case 1:
			lf.Items = []LeafItem{}
		default:
			for n := 1 + rnd.Intn(4); n > 0; n-- {
				lf.Items = append(lf.Items, LeafItem{Name: randString(rnd), Digest: randString(rnd)})
			}
		}
		want, err := json.Marshal(lf)
		if err != nil {
			t.Fatal(err)
		}
		if got := lf.appendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("leaf %+v encodes as\n %q, json.Marshal as\n %q", lf, got, want)
		}
	}
}

// TestAllocCeilings pins the allocation levels of the log's hot path: a
// leaf hashes in a stack buffer, and an item digest allocates only the
// string it returns.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lf := Leaf{Index: 4711, Txn: uuid.UUID{1}.String(), Closure: strings.Repeat("ab", 32), Epoch: 3, SimNanos: 1 << 40}
	for i := 0; i < 3; i++ {
		lf.Items = append(lf.Items, LeafItem{Name: strings.Repeat("n", 38), Digest: strings.Repeat("d", 64)})
	}
	if n := testing.AllocsPerRun(100, func() { _ = lf.Hash() }); n > 1 {
		t.Errorf("Leaf.Hash allocates %v times, want <= 1", n)
	}
	attrs := benchAttrs()
	if n := testing.AllocsPerRun(100, func() { _ = ItemDigest(attrs) }); n != 1 {
		t.Errorf("ItemDigest allocates %v times, want 1", n)
	}
}

// benchAttrs is the attribute set of a client-path file item.
func benchAttrs() []sdb.Attr {
	return []sdb.Attr{
		{Name: "type", Value: "file"},
		{Name: "name", Value: "mnt/out/r1/hits000042.txt"},
		{Name: "input", Value: uuid.UUID{2}.String() + "_1"},
		{Name: "prev", Value: uuid.UUID{3}.String() + "_1"},
	}
}

var sinkDigest string

func BenchmarkItemDigest(b *testing.B) {
	attrs := benchAttrs()
	b.ReportAllocs()
	for b.Loop() {
		sinkDigest = ItemDigest(attrs)
	}
}

func BenchmarkLeafHash(b *testing.B) {
	lf := Leaf{Index: 4711, Txn: uuid.UUID{1}.String(), Closure: strings.Repeat("ab", 32), Epoch: 3, SimNanos: 1 << 40}
	for i := 0; i < 3; i++ {
		lf.Items = append(lf.Items, LeafItem{Name: uuid.UUID{byte(i)}.String() + "_1", Digest: strings.Repeat("d", 64)})
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = lf.Hash()
	}
}

// BenchmarkIngest folds client-path-shaped notices — 32 transactions of
// three items each, the group size the client path's settles publish —
// into a log; one op is one notice.
func BenchmarkIngest(b *testing.B) {
	cfg := sim.DefaultConfig()
	env := sim.NewEnv(cfg)
	l := New(env, store.New(env), "")
	rnd := sim.NewRand(1)
	notice := func() core.CommitNotice {
		var n core.CommitNotice
		for t := 0; t < 32; t++ {
			txn := uuid.New(rnd)
			n.Txns = append(n.Txns, txn)
			n.Digests = append(n.Digests, strings.Repeat("c", 64))
			for i := 0; i < 3; i++ {
				n.Items = append(n.Items, core.NoticeItem{Txn: txn, Name: uuid.New(rnd).String() + "_1", Attrs: benchAttrs()})
			}
		}
		return n
	}
	notices := make([]core.CommitNotice, 64)
	for i := range notices {
		notices[i] = notice()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(notices) == 0 && i > 0 {
			// Fresh transactions: a redelivered one is skipped.
			b.StopTimer()
			l = New(env, store.New(env), "")
			b.StartTimer()
		}
		env.Clock().Sleep(time.Millisecond)
		l.Ingest(notices[i%len(notices)])
	}
}
