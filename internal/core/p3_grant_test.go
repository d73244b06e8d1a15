package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// walBytes reads off dep's meter the WAL bytes every receive has returned
// and every batch send has stored. Every WAL packet travels by
// SendMessageBatch, so their ratio is the deliveries per WAL message.
func walBytes(dep *Deployment) (received, sent int64) {
	b := dep.Env.Meter().Usage().BytesByKind
	return b["sqs.ReceiveMessage"], b["sqs.SendMessageBatch"]
}

// redelivered reports whether a receive has delivered some WAL message of
// dep a second time; dep must not inject duplicate sends.
func redelivered(dep *Deployment) bool {
	received, sent := walBytes(dep)
	return received > sent
}

// commitBulk logs n transactions of the bulk shape — a process and a
// 63-version chain of one file, each bundle padded to about 1 KB — named
// after wave.
func commitBulk(t *testing.T, p *P3, wave, n int) {
	t.Helper()
	objs, bundles := poolTxns(int64(56+wave), n, 64)
	pad := strings.Repeat("p", 900)
	for i := range objs {
		objs[i].Path = fmt.Sprintf("mnt/bulk/%d/%04d", wave, i)
		for j := range bundles[i] {
			bundles[i][j].Records = append(bundles[i][j].Records, prov.Record{Attr: prov.AttrEnv, Value: pad})
		}
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestP3BulkSettleReceivesEachPacketOnce runs manual-clock bulk settles —
// K=4, four workers, waves of 256 transactions of 64 bundles, each wave
// committed and then settled — and reads the deliveries per WAL message of
// each wave. A group commit lasts minutes of simulated time, far past the
// WAL's 30-second visibility timeout. The first wave is a cold start: its
// first receives grant that timeout, and the packets P3 holds for
// transactions still assembling lapse during the first group commit. From
// then on P3 grants twice the longest hold it has seen, so a packet it holds
// is not delivered again: at most 1.05 deliveries per message, where the
// WAL's own timeout on every receive reads about 1.5 on every wave.
func TestP3BulkSettleReceivesEachPacketOnce(t *testing.T) {
	dep := newShardedDep(t, sim.Strict, 4)
	p := NewP3(dep, Options{CommitWorkers: 4})
	const waves, txns = 4, 256
	for wave := 0; wave < waves; wave++ {
		recv0, sent0 := walBytes(dep)
		commitBulk(t, p, wave, txns)
		if err := p.Settle(); err != nil {
			t.Fatal(err)
		}
		if n := copies(dep); n != int64((wave+1)*txns) {
			t.Fatalf("wave %d: %d COPYs for %d transactions", wave, n, (wave+1)*txns)
		}
		if n := dep.WAL.Len(); n != 0 {
			t.Fatalf("wave %d: WAL holds %d messages after settle", wave, n)
		}
		recv, sent := walBytes(dep)
		d := float64(recv-recv0) / float64(sent-sent0)
		t.Logf("wave %d: %.3f deliveries per WAL message", wave, d)
		if wave > 0 && d > 1.05 {
			t.Errorf("wave %d: %.3f deliveries per WAL message, want <= 1.05", wave, d)
		}
	}
}

// TestShrinkDrainsLongGrantedPackets: a slow group raises P3's grant far
// past the 200 staleness means (140 s) a WAL drain used to wait, and then a
// client dies after logging one packet of a transaction homed on the queue a
// shrink decommissions. P3 receives that packet and holds it under the long
// grant. The shrink waits the grant out and moves the packet, instead of
// failing with "will not drain".
func TestShrinkDrainsLongGrantedPackets(t *testing.T) {
	dep := newShardedDep(t, sim.Strict, 2)
	p := NewP3(dep, Options{CommitWorkers: 2})
	commitBulk(t, p, 0, 64)
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	grant := 2 * time.Duration(p.hold.Load())
	if grant < 10*time.Minute {
		t.Fatalf("a slow group left the grant at %v", grant)
	}

	band := sim.Band(255)
	if home := dep.WAL.View().Active.RouteHash(band.Start()); home != 1 {
		t.Fatalf("band %d homes on WAL shard %d, want the one the shrink retires", band, home)
	}
	dep.Env.InstallFaults(nil).CrashAt(CrashClientAfterPackets, 1)
	objs, bundles := poolTxns(77, 1, 64)
	for j := range bundles[0] { // several packets, so the client can die between them
		bundles[0][j].Records = append(bundles[0][j].Records, prov.Record{Attr: prov.AttrEnv, Value: strings.Repeat("p", 900)})
	}
	if err := p.CommitInBand(band, objs[0], bundles[0]); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("client crash: %v", err)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if dep.WAL.Shard(1).Len() != 1 || p.PendingTxns() != 1 {
		t.Fatalf("%d packets on the retiring shard, %d transactions pending; want the crashed client's one, held", dep.WAL.Shard(1).Len(), p.PendingTxns())
	}
	granted := dep.WAL.Shard(1).Granted()
	if granted != grant {
		t.Fatalf("the retiring shard granted %v, P3 asks for %v", granted, grant)
	}

	start := dep.Env.Now()
	stats, err := dep.Reshard(context.Background(), Topology{WALShards: 1, DBShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if waited := dep.Env.Now() - start; waited < granted/2 {
		t.Fatalf("the shrink took %v, under the %v grant it had to wait out", waited, granted)
	}
	if stats.WALMigrated != 1 || dep.WAL.Shards() != 1 || dep.WAL.Len() != 1 {
		t.Fatalf("moved %d packets; %d shards holding %d, want the one packet on one shard", stats.WALMigrated, dep.WAL.Shards(), dep.WAL.Len())
	}
}
