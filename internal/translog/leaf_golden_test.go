package translog

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/merkle"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// oddNames are item names that exercise every escaping rule of the leaf
// encoding: quotes, backslashes, HTML-sensitive bytes, control bytes, the
// JavaScript line separators and invalid UTF-8.
var oddNames = []string{
	`quote"d`, `back\slash`, "<a href=x>&amp;</a>", "tab\tnl\ncr\r\x00\x1f\x7f",
	"ls\u2028ps\u2029", "bad\xffutf8\xc3", "\u00e9\u6f22\u5b57\U0001f642", "",
}

// goldenNotices is a fixed seeded commit-notice stream shaped like the
// client path's: one- to four-transaction groups of provenance items
// (type, name, input and argv attributes), some transactions with no
// closure root, a transaction with no items, and one odd item name per
// notice.
func goldenNotices(seed int64, n int) []core.CommitNotice {
	rnd := sim.NewRand(seed)
	var out []core.CommitNotice
	for i := 0; i < n; i++ {
		var no core.CommitNotice
		no.Epoch = 1 + i/10
		txns := 1 + rnd.Intn(4)
		for t := 0; t < txns; t++ {
			txn := uuid.New(rnd)
			no.Txns = append(no.Txns, txn)
			digest := ""
			if rnd.Intn(4) != 0 {
				digest = merkle.HashLeafBytes([]byte(txn.String())).String()
			}
			no.Digests = append(no.Digests, digest)
			items := rnd.Intn(4) // zero items: a leaf with an empty item list
			for j := 0; j < items; j++ {
				ref := prov.Ref{UUID: uuid.New(rnd), Version: 1 + rnd.Intn(3)}
				name := ref.String()
				if j == 0 && t == 0 {
					name = oddNames[i%len(oddNames)]
				}
				attrs := []sdb.Attr{
					{Name: prov.AttrType, Value: "file"},
					{Name: prov.AttrName, Value: fmt.Sprintf("mnt/out/hits%03d.txt", rnd.Intn(1000))},
					{Name: prov.AttrInput, Value: prov.Ref{UUID: uuid.New(rnd), Version: 1}.String()},
				}
				if rnd.Intn(2) == 0 {
					attrs = append(attrs, sdb.Attr{Name: prov.AttrArgv, Value: oddNames[rnd.Intn(len(oddNames))]})
				}
				no.Items = append(no.Items, core.NoticeItem{Txn: txn, Name: name, Attrs: attrs})
			}
		}
		out = append(out, no)
	}
	return out
}

// goldenLog ingests the golden notice stream into a fresh log, advancing
// the manual clock between notices, and renders every leaf's canonical
// bytes and hash plus the tree root.
func goldenLog(t *testing.T) string {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 42
	env := sim.NewEnv(cfg)
	l := New(env, store.New(env), "")
	rnd := sim.NewRand(7)
	for _, n := range goldenNotices(42, 40) {
		env.Clock().Sleep(time.Duration(1+rnd.Intn(5000)) * time.Microsecond)
		l.Ingest(n)
	}
	var b strings.Builder
	for i, lf := range l.Leaves() {
		enc, err := json.Marshal(lf)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", l.hashes[i], enc)
	}
	_, root := l.TreeHead()
	fmt.Fprintf(&b, "root %s size %d\n", root, l.Size())
	return b.String()
}

// TestLeafGoldenSeed42 pins the log's format: the canonical bytes of every
// leaf of a fixed notice stream, each leaf's hash and the tree root. A line
// that moves means the leaf encoding, the leaf hash or the tree shape
// changed, and every signed head ever published would stop verifying.
func TestLeafGoldenSeed42(t *testing.T) {
	golden, err := os.ReadFile("testdata/leaves_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenLog(t)
	if got == string(golden) {
		return
	}
	want := strings.Split(string(golden), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			t.Fatalf("golden line %d moved:\ngot  %s\nwant %s", i+1, line, want[min(i, len(want)-1)])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(want), strings.Count(got, "\n")+1)
}
