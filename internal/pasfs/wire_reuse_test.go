package pasfs

import (
	"testing"
	"unsafe"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// recordingProtocol is stubProtocol that keeps each commit's bundles.
type recordingProtocol struct {
	stubProtocol
	txns [][]prov.Bundle
}

func (p *recordingProtocol) Commit(_ core.FileObject, bundles []prov.Bundle) error {
	p.txns = append(p.txns, bundles)
	return nil
}

// TestClientPathDecodeReuse counts how often the wire decoder hands back
// the previous bundle's string for a value, on the client path's
// transactions: the Blast stream's closures repeat little, unlike
// ingest_bulk's version chains. The count is logged, and it must stay a
// minority share.
func TestClientPathDecodeReuse(t *testing.T) {
	proto := &recordingProtocol{}
	fs := New(sim.NewEnv(sim.DefaultConfig()), proto, pass.New(sim.NewRand(42), nil), Config{Collect: true})
	if err := fs.Run(blastTrace(200)); err != nil {
		t.Fatal(err)
	}
	hits, values := 0, 0
	for _, bundles := range proto.txns {
		got, err := prov.DecodeBundles(prov.EncodeBundles(bundles))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			for j, r := range b.Records {
				if r.IsXref() || r.Value == "" {
					continue
				}
				values++
				if i > 0 && j < len(got[i-1].Records) &&
					unsafe.StringData(r.Value) == unsafe.StringData(got[i-1].Records[j].Value) {
					hits++
				}
			}
		}
	}
	t.Logf("client path: %d transactions; %d of %d decoded values reuse the previous bundle's string", len(proto.txns), hits, values)
	if values == 0 || 2*hits >= values {
		t.Fatalf("%d of %d values reused, want a minority", hits, values)
	}
}
