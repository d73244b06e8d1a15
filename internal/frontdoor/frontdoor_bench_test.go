package frontdoor

import (
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/sim"
)

// BenchmarkTenantCommit is one client-path commit through the door on the
// manual clock: admission, the log phase (temporary object, WAL encoding)
// and the combined WAL send of a two-bundle transaction. The commit
// daemons' work is drained outside the timer every 512 commits.
func BenchmarkTenantCommit(b *testing.B) {
	simCfg := sim.DefaultConfig()
	simCfg.Consistency = sim.Strict
	env := sim.NewEnv(simCfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: 4, DBShards: 4})
	p3 := core.NewP3(dep, core.Options{CommitWorkers: 4})
	tn := New(dep, p3, Config{}).Tenant("client", Quota{Rate: 1e6, Burst: 1e6, MaxQueue: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		obj, bundles := tenantTxn(tn, i)
		if err := tn.Commit(obj, bundles); err != nil {
			b.Fatal(err)
		}
		if i%512 == 0 {
			b.StopTimer()
			if err := p3.Settle(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
