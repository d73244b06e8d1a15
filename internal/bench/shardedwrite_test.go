package bench

import (
	"fmt"
	"testing"

	"passcloud/internal/core"
)

// TestShardedWriteIdentical is the always-on correctness check: the same
// transaction set committed through K=1, K=2 and K=4 fabrics must land
// byte-identically — identical ReadProvenance digests regardless of how the
// items and WAL traffic were sharded — and at K=4 the load must actually
// spread: every domain and every WAL queue saw requests.
func TestShardedWriteIdentical(t *testing.T) {
	var first ShardedWriteRun
	for i, k := range []int{1, 2, 4} {
		run, err := ShardedWrite(7, 24, 16, 4, 64, 800, core.Topology{WALShards: k, DBShards: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if run.ProvDigest == "" {
			t.Fatalf("K=%d: empty digest", k)
		}
		if k == 4 {
			for s := 0; s < k; s++ {
				for _, ep := range []string{fmt.Sprintf("prov-%d", s), fmt.Sprintf("wal-%d", s)} {
					if run.usage.OpsByEndpoint[ep] == 0 {
						t.Errorf("K=4: shard %s saw no requests: %v", ep, run.usage.OpsByEndpoint)
					}
				}
			}
		}
		if i == 0 {
			first = run
			continue
		}
		if run.ProvDigest != first.ProvDigest {
			t.Errorf("K=%d digest %s differs from K=1 %s", k, run.ProvDigest, first.ProvDigest)
		}
	}
}
