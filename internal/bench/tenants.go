package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/frontdoor"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The tenant-isolation harness: drive a compliant tenant's commit workload
// through the front door while an abusive co-tenant replays a retry storm
// against the same fabric under a transient-fault plan, and prove the
// admission layer holds the blast radius — the compliant tenant's commit
// tail latency and goodput must stay within a constant factor of its solo
// baseline, the fabric must hold exactly one copy of every committed item,
// and the compliant tenant's read-back provenance must be byte-identical
// solo vs shared. The same storm with isolation disabled must visibly
// violate the bound (the negative control).

// TenantIsolationScale is the live-mode time scale of the isolation runs.
// The measured path is dominated by modelled service latencies (an S3 PUT
// alone costs ~1.6 simulated seconds), so this scale keeps every measured
// sleep well inside time.Sleep's accurate range.
const TenantIsolationScale = 100

// Storm behaviour: an abusive client ignores RetryAfter hints (which the
// quota below sets in whole seconds) and hammers again after a fraction of
// one request round-trip.
const stormPause = 250 * time.Millisecond

// Quotas. The compliant tenant is provisioned above its offered rate (its
// pacing is client-side), the abuser far below its storm rate, so admission
// — not luck — is what bounds the abuser's share of the shared S3 gate.
var (
	compliantQuota = frontdoor.Quota{Rate: 60, Burst: 32, MaxQueue: 256, Priority: frontdoor.PriorityHigh}
	abusiveQuota   = frontdoor.Quota{Rate: 4, Burst: 2, MaxQueue: 4, Priority: frontdoor.PriorityLow}
)

// TenantIsolationConfig parameterizes one tenant-isolation run.
type TenantIsolationConfig struct {
	Seed          int64
	Txns          int     // compliant tenant's transactions
	BundlesPerTxn int     // provenance bundles (items) per transaction
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // compliant tenant's concurrent committers
	OfferedRate   float64 // compliant open-loop arrival rate, commits/sim-sec
	Scale         float64 // live-mode time scale; 0 uses TenantIsolationScale
	K             int     // WAL and DB shards
	FaultProb     float64 // per-request fault probability
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	DupProb       float64 // queue duplicate-delivery probability
	Abuser        bool    // run the abusive co-tenant storm
	AbuserConns   int     // storm concurrency
	AbuserTxns    int     // size of the fixed transaction set the storm replays
	Isolation     bool    // false = negative control (front door bypassed)
}

// TenantIsolationRun is the measured outcome of one configuration.
type TenantIsolationRun struct {
	Mode          string `json:"mode"` // "solo" | "shared" | "no_isolation"
	Isolation     bool   `json:"isolation"`
	Abuser        bool   `json:"abuser"`
	K             int    `json:"k"`
	Txns          int    `json:"txns"`
	BundlesPerTxn int    `json:"bundles_per_txn"`
	Events        int    `json:"events"` // compliant provenance bundles committed
	Workers       int    `json:"workers"`

	CommitErrors int    `json:"commit_errors"` // failed compliant commits
	FirstError   string `json:"first_error,omitempty"`

	SimSeconds  float64 `json:"sim_seconds"` // compliant commit phase, simulated
	WallSeconds float64 `json:"wall_seconds"`
	Goodput     float64 `json:"goodput_events_per_sim_sec"`

	CommitP50Ms float64 `json:"commit_p50_ms"` // compliant commit latency, simulated
	CommitP99Ms float64 `json:"commit_p99_ms"`

	CompliantAdmitted int64 `json:"compliant_admitted"`
	CompliantQueued   int64 `json:"compliant_queued"`
	CompliantShed     int64 `json:"compliant_shed"`
	AbuserAttempts    int64 `json:"abuser_attempts"`
	AbuserCommitted   int64 `json:"abuser_committed"`
	AbuserAdmitted    int64 `json:"abuser_admitted"`
	AbuserShed        int64 `json:"abuser_shed"`

	Faults            int64 `json:"faults"`
	TenantRetries     int64 `json:"tenant_retries"`       // of requests made for a tenant
	TenantBreakerOpen int64 `json:"tenant_breaker_opens"` //
	EndpointRetries   int64 `json:"endpoint_retries"`     // of every request

	ItemCount   int     `json:"item_count"`
	AbuserItems int     `json:"abuser_items"` // abuser items present after settle
	Misplaced   int     `json:"misplaced"`
	Duplicates  int     `json:"duplicates"`
	TotalOps    int64   `json:"total_ops"`
	CostUSD     float64 `json:"cost_usd"`
	ProvDigest  string  `json:"prov_digest"` // compliant tenant's read-back only
	Verified    bool    `json:"verified"`
}

// tenantIsolationIDs picks the two tenant ids deterministically: the
// compliant tenant is fixed, the abuser is the first candidate whose band
// homes on a different WAL shard at K (at K=1 they necessarily share it).
func tenantIsolationIDs(k int) (compliant, abuser string) {
	compliant = "acme"
	epoch := sim.NewDirectory(k).Active()
	home := epoch.RouteHash(frontdoor.BandFor(compliant).Start())
	for i := 0; ; i++ {
		abuser = fmt.Sprintf("noisy-%d", i)
		if k == 1 || epoch.RouteHash(frontdoor.BandFor(abuser).Start()) != home {
			return compliant, abuser
		}
	}
}

// tenantPipeTxns is the pinned workload shape with every object uuid minted
// inside the tenant's band, so the set co-shards the way front-door traffic
// does. Bundles stay small: the storm replays them endlessly.
func tenantPipeTxns(seed int64, tenant string, txns, bundlesPerTxn int) []pipeTxn {
	band := frontdoor.BandFor(tenant)
	mint := func(r *sim.Rand) uuid.UUID { return core.MintBandUUID(r, band) }
	return pipeTxns(sim.NewRand(seed), mint, tenant, strings.Repeat("tenantpad", 40), txns, bundlesPerTxn)
}

// TenantIsolation runs one configuration: the compliant tenant commits its
// transaction set open-loop through the front door (sleeping RetryAfter on
// backpressure, as a well-behaved client does) while, if configured, the
// abusive tenant's storm replays a fixed transaction set as fast as the
// door lets it, ignoring every backpressure hint. After the storm stops the
// fabric settles, retention and the cleaner garbage-collect whatever the
// abuser abandoned mid-flight, and the run verifies zero lost or duplicated
// items and digests the compliant tenant's read-back provenance.
func TenantIsolation(c TenantIsolationConfig) (TenantIsolationRun, error) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ClientConns <= 0 {
		c.ClientConns = 16
	}
	if c.OfferedRate <= 0 {
		c.OfferedRate = 30
	}
	if c.Scale == 0 {
		c.Scale = TenantIsolationScale
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.AbuserConns <= 0 {
		// The shared S3 write gate admits ~95 requests/s and a commit's PUT
		// costs ~1.6s of service latency, so a closed-loop storm needs well
		// over 95 x 1.6 outstanding commits before gate queueing dominates
		// the service-latency floor; anything less is a storm the fabric
		// absorbs without the door's help.
		c.AbuserConns = 480
	}
	if c.AbuserTxns <= 0 {
		c.AbuserTxns = 6
	}
	compliantID, abuserID := tenantIsolationIDs(c.K)
	set := tenantPipeTxns(c.Seed, compliantID, c.Txns, c.BundlesPerTxn)
	abuseSet := tenantPipeTxns(c.Seed^0x5eed, abuserID, c.AbuserTxns, c.BundlesPerTxn)

	mode := "solo"
	switch {
	case c.Abuser && !c.Isolation:
		mode = "no_isolation"
	case c.Abuser:
		mode = "shared"
	}
	run := TenantIsolationRun{
		Mode: mode, Isolation: c.Isolation, Abuser: c.Abuser,
		K: c.K, Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn,
		Events: c.Txns * c.BundlesPerTxn, Workers: c.Workers,
	}
	cfg := fabric.Config{
		Topology: kWay(c.K), Workers: c.Workers,
		Tenants: []fabric.Tenant{{ID: compliantID, Quota: compliantQuota}, {ID: abuserID, Quota: abusiveQuota}},
		Door:    frontdoor.Config{DisableIsolation: !c.Isolation},
	}
	if c.FaultProb > 0 {
		cfg.Faults = sim.UniformPlan(c.FaultProb, c.ApplyProb)
	}
	f, err := liveFabric(c.Seed, c.Scale, c.DupProb, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close() // after the storm has stopped: defers run last-in first-out
	env, compliant, abuser := f.Env, f.Tenants[0], f.Tenants[1]
	wall0 := time.Now()
	f.Start() // the pool drains the WAL while both tenants log

	// The storm: AbuserConns clients cycling the fixed abusive set flat out,
	// ignoring RetryAfter. Re-commits of the same content are harmless (they
	// rewrite identical items under fresh transaction uuids); what matters
	// is the request pressure they put on the shared fabric.
	var abAttempts, abCommitted atomic.Int64
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	if c.Abuser {
		for w := 0; w < c.AbuserConns; w++ {
			stormWG.Add(1)
			go func() {
				defer stormWG.Done()
				for j := w; ; j++ {
					select {
					case <-stopStorm:
						return
					default:
					}
					tx := &abuseSet[j%len(abuseSet)]
					abAttempts.Add(1)
					if err := abuser.Commit(tx.obj, tx.bundles); err != nil {
						env.Clock().Sleep(stormPause)
						continue
					}
					abCommitted.Add(1)
				}
			}()
		}
	}
	stopTheStorm := sync.OnceFunc(func() {
		close(stopStorm)
		stormWG.Wait()
	})
	defer stopTheStorm()

	// The compliant tenant's phase: open-loop arrivals at OfferedRate spread
	// over ClientConns connections, each commit timed from its arrival and
	// retried (after sleeping the hint) when the door sheds it.
	interarrival := time.Duration(float64(c.ClientConns) / c.OfferedRate * float64(time.Second))
	lat := make([]time.Duration, len(set))
	cerrs := make([]error, len(set))
	work := make(chan int)
	t0 := env.Now()
	var clientWG sync.WaitGroup
	for w := 0; w < c.ClientConns; w++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			wrnd := sim.NewRand(c.Seed ^ int64(1000+w))
			for idx := range work {
				tx := &set[idx]
				env.Clock().Sleep(wrnd.Exp(interarrival))
				at := env.Now()
				for {
					err := compliant.Commit(tx.obj, tx.bundles)
					var oc *frontdoor.OverCapacityError
					if errors.As(err, &oc) {
						env.Clock().Sleep(oc.RetryAfter + time.Millisecond)
						continue
					}
					cerrs[idx] = err
					break
				}
				lat[idx] = env.Now() - at
			}
		}()
	}
	for i := range set {
		work <- i
	}
	close(work)
	clientWG.Wait()
	run.SimSeconds = (env.Now() - t0).Seconds()
	stopTheStorm()

	for _, err := range cerrs {
		if err != nil {
			run.CommitErrors++
			if run.FirstError == "" {
				run.FirstError = err.Error()
			}
		}
	}
	committed := (c.Txns - run.CommitErrors) * c.BundlesPerTxn
	if run.SimSeconds > 0 {
		run.Goodput = float64(committed) / run.SimSeconds
	}
	run.CommitP50Ms, run.CommitP99Ms = pctMs(lat)

	// Drain everything assembled, fault-free, then stop the pool. The
	// negative control only measures — a fabric an unthrottled storm flooded
	// takes unboundedly long to drain on the live clock, and the bound
	// violation it exists to show is already in the numbers.
	if inj := env.Faults(); inj != nil {
		inj.SetPlan(nil)
	}
	verified := c.Isolation
	if verified {
		if err := f.P3.Settle(); err != nil {
			return run, err
		}
	}
	f.Stop()
	if verified {
		if err := f.P3.Settle(); err != nil {
			return run, err
		}
	}
	run.WallSeconds = time.Since(wall0).Seconds()

	usage := env.Meter().Usage()
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(env.Config().StorageWindow)
	run.Faults = usage.Faults
	if ops, ok := usage.OpsByTenant[compliantID]; ok {
		run.CompliantAdmitted, run.CompliantQueued, run.CompliantShed = ops.Admitted, ops.Queued, ops.Shed
	}
	if ops, ok := usage.OpsByTenant[abuserID]; ok {
		run.AbuserAdmitted, run.AbuserShed = ops.Admitted, ops.Shed
	}
	run.AbuserAttempts = abAttempts.Load()
	run.AbuserCommitted = abCommitted.Load()
	st := f.Dep.Res.Stats()
	for _, ts := range st.Tenants {
		run.TenantRetries += ts.Retries
		run.TenantBreakerOpen += ts.BreakerOpens
	}
	run.EndpointRetries = st.Totals().Retries
	if !verified {
		return run, nil
	}

	// Verification outside the measurement, on the manual clock. The storm
	// abandons transactions mid-send (its tenant breaker cuts it off between
	// WAL batches), so first let retention expire the orphaned packets and
	// the cleaner collect the orphaned temp objects — the same path that
	// cleans up crashed clients — then require a fabric as clean as a calm
	// run's.
	if err := f.ToManual(); err != nil {
		return run, err
	}
	env.Clock().Advance(5 * 24 * time.Hour)
	if _, err := f.P3.RunCleaner(0); err != nil {
		return run, fmt.Errorf("bench: cleaner after storm: %w", err)
	}
	if err := cleanEnd(f, true); err != nil {
		return run, err
	}

	// Ground truth for the abuser: a transaction the storm abandoned must
	// have left nothing, a transaction that landed at least once must be
	// complete — all or nothing, per transaction.
	for i := range abuseSet {
		nproc, err := provItemCount(f.Dep, abuseSet[i].proc)
		if err != nil {
			return run, err
		}
		nfile, err := provItemCount(f.Dep, abuseSet[i].file)
		if err != nil {
			return run, err
		}
		whole := nproc == 1 && nfile == c.BundlesPerTxn-1
		empty := nproc == 0 && nfile == 0
		if !whole && !empty {
			return run, fmt.Errorf("bench: partial abuser txn %d: proc=%d file=%d items", i, nproc, nfile)
		}
		run.AbuserItems += nproc + nfile
	}
	// Exact item count, placement audit, and the compliant tenant's digest:
	// the solo and shared runs must agree byte for byte.
	v, err := verify(f, set)
	if err != nil {
		return run, err
	}
	run.ItemCount, run.Misplaced, run.Duplicates, run.ProvDigest = v.items, v.misplaced, v.duplicates, v.digest
	if want := run.Events + run.AbuserItems; run.ItemCount != want {
		return run, fmt.Errorf("bench: %d items in fabric, want %d (lost or duplicated)", run.ItemCount, want)
	}
	if v.misplaced != 0 || v.duplicates != 0 {
		return run, fmt.Errorf("bench: audit found %d misplaced, %d duplicated", v.misplaced, v.duplicates)
	}
	run.Verified = true
	return run, nil
}

// provItemCount reads back one uuid's item count; absence is zero.
func provItemCount(dep *core.Deployment, u uuid.UUID) (int, error) {
	bundles, err := core.ReadProvenance(dep, core.BackendSDB, u)
	if errors.Is(err, core.ErrNoProvenance) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("bench: read-back of %s: %w", u, err)
	}
	return len(bundles), nil
}
