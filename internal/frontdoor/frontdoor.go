package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// ErrOverCapacity is the sentinel every shed commit wraps: the tenant's
// admission queue is full and the request was rejected with backpressure.
var ErrOverCapacity = errors.New("frontdoor: over capacity")

// OverCapacityError is the typed backpressure a shed commit returns.
// RetryAfter is the earliest virtual-time delay after which a retry could
// be admitted (the client should sleep it on the sim clock); shedding does
// not advance the tenant's admission state, so backing off costs nothing.
type OverCapacityError struct {
	Tenant     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverCapacityError) Error() string {
	return fmt.Sprintf("frontdoor: tenant %s over capacity, retry after %s", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverCapacity) work.
func (e *OverCapacityError) Unwrap() error { return ErrOverCapacity }

// Priority ranks tenants for load shedding: when a shared fabric
// saturates, lower priorities are shed first because their admission
// queues are scaled down harder. The zero value is PriorityNormal.
type Priority int

// Priorities, by shedding order (low sheds first).
const (
	PriorityNormal Priority = iota
	PriorityHigh
	PriorityLow
)

// queueShare is the fraction of Quota.MaxQueue a priority may occupy.
func (p Priority) queueShare() float64 {
	switch p {
	case PriorityHigh:
		return 1.0
	case PriorityLow:
		return 0.3
	}
	return 0.6
}

// String names the priority.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	}
	return "normal"
}

// Quota is one tenant's admission contract. The zero value selects the
// defaults below.
type Quota struct {
	// Rate is the sustained commit rate, tokens per second of virtual time.
	Rate float64
	// Burst is how many commits may arrive back-to-back before pacing
	// kicks in (classic token-bucket depth, >= 1).
	Burst float64
	// MaxQueue bounds the admission queue: commits that would have to wait
	// more than MaxQueue·(1/Rate) (scaled by the priority share) are shed
	// with ErrOverCapacity instead of queueing unboundedly.
	MaxQueue int
	// Priority scales the queue bound for load shedding.
	Priority Priority
}

// Quota defaults.
const (
	DefaultRate     = 100.0
	DefaultBurst    = 16.0
	DefaultMaxQueue = 64
)

// withDefaults fills zero fields.
func (q Quota) withDefaults() Quota {
	if q.Rate <= 0 {
		q.Rate = DefaultRate
	}
	if q.Burst < 1 {
		q.Burst = DefaultBurst
	}
	if q.MaxQueue <= 0 {
		q.MaxQueue = DefaultMaxQueue
	}
	return q
}

// interval is the token accrual period.
func (q Quota) interval() time.Duration {
	return time.Duration(float64(time.Second) / q.Rate)
}

// DefaultCombineWindow is how long the write combiner holds a commit's WAL
// entries open for batch-packing when Config.CombineWindow is zero.
const DefaultCombineWindow = 5 * time.Millisecond

// Config tunes a Door. The zero value is a working configuration.
type Config struct {
	// CombineWindow is how long a WAL flush waits for co-tenant entries to
	// pack into full batches; zero selects DefaultCombineWindow, negative
	// disables combining (every commit flushes its own entries).
	CombineWindow time.Duration
	// DisableIsolation bypasses quotas, tenant-keyed retry state and write
	// combining; commits go straight to the protocol (banded placement
	// still applies). This is the bench's negative control.
	DisableIsolation bool
}

// Door is the multi-tenant admission layer over one deployment's P3
// protocol. See the package comment for the admission model.
type Door struct {
	dep  *core.Deployment
	p3   *core.P3
	env  *sim.Env
	cfg  Config
	comb *combiner

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// New returns a door admitting tenants onto dep's p3 protocol.
func New(dep *core.Deployment, p3 *core.P3, cfg Config) *Door {
	if cfg.CombineWindow == 0 {
		cfg.CombineWindow = DefaultCombineWindow
	}
	return &Door{
		dep:     dep,
		p3:      p3,
		env:     dep.Env,
		cfg:     cfg,
		comb:    newCombiner(dep.Env, cfg.CombineWindow),
		tenants: make(map[string]*Tenant),
	}
}

// BandFor returns the placement band a tenant id folds into.
func BandFor(tenant string) sim.Band { return sim.BandOf("tenant/" + tenant) }

// Resilience returns nil: the door has no retry client of its own. Its
// requests are retried at their endpoints by the deployment's client
// (core.Deployment.Res), whose Stats count them by tenant.
//
// Deprecated: read core.Deployment.Res. Resilience is kept for callers that
// add its counters to the deployment's; a nil client's Stats are empty, so
// nothing is counted twice.
func (d *Door) Resilience() *resilient.Client { return nil }

// Tenant registers (or returns the already-registered) tenant id with
// quota; a re-registration keeps the original quota.
func (d *Door) Tenant(id string, quota Quota) *Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.tenants[id]; t != nil {
		return t
	}
	t := &Tenant{
		door:  d,
		id:    id,
		band:  BandFor(id),
		quota: quota.withDefaults(),
		rnd:   sim.NewRand(d.env.Config().Seed ^ int64(sim.Hash32("tenant/"+id))),
	}
	d.tenants[id] = t
	return t
}

// Tenant is one tenant's handle on the door: its identity (and placement
// band), its quota state, and its uuid mint. Handles are safe for
// concurrent use by any number of the tenant's callers.
type Tenant struct {
	door  *Door
	id    string
	band  sim.Band
	quota Quota

	// rnd is the tenant's own uuid stream, decorrelated from the
	// environment's and other tenants' by the id hash, so tenants mint
	// deterministically and independently.
	rnd *sim.Rand

	// mu guards tat, the GCRA theoretical-arrival-time of the next token.
	mu  sync.Mutex
	tat time.Duration
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.id }

// Band returns the tenant's placement band.
func (t *Tenant) Band() sim.Band { return t.band }

// Quota returns the tenant's effective (defaulted) quota.
func (t *Tenant) Quota() Quota { return t.quota }

// NewUUID mints an object uuid inside the tenant's band, so the object's
// provenance items co-shard with the rest of the tenant's data.
func (t *Tenant) NewUUID() uuid.UUID {
	return core.MintBandUUID(t.rnd, t.band)
}

// admit runs GCRA admission: immediate admission while a token is free,
// a bounded virtual-time wait while the queue has room, typed shedding
// beyond it. Counters land in the environment meter per tenant.
func (t *Tenant) admit() error {
	q := t.quota
	interval := q.interval()
	tolerance := time.Duration((q.Burst - 1) * float64(interval))
	meter := t.door.env.Meter()

	t.mu.Lock()
	now := t.door.env.Now()
	tat := t.tat
	if tat < now {
		tat = now
	}
	wait := tat - tolerance - now
	if wait <= 0 {
		t.tat = tat + interval
		t.mu.Unlock()
		meter.CountTenantAdmitted(t.id)
		return nil
	}
	depth := int(wait / interval)
	limit := int(float64(q.MaxQueue) * q.Priority.queueShare())
	if limit < 1 {
		limit = 1
	}
	if depth >= limit {
		// Shed without advancing tat: backpressure costs the tenant nothing.
		t.mu.Unlock()
		meter.CountTenantShed(t.id)
		return &OverCapacityError{Tenant: t.id, RetryAfter: wait}
	}
	t.tat = tat + interval
	t.mu.Unlock()
	meter.CountTenantQueued(t.id)
	t.door.env.Clock().Sleep(wait)
	meter.CountTenantAdmitted(t.id)
	return nil
}

// Commit admits one commit against the tenant's quota and runs it through
// the WAL write combiner. The transaction uuid is minted inside the tenant's
// band, co-sharding its WAL packets with the tenant's items. Every request
// is made for the tenant (sim.WithTenant) and retried only at its endpoint;
// a commit whose request still fails returns that error.
func (t *Tenant) Commit(obj core.FileObject, bundles []prov.Bundle) error {
	d := t.door
	if d.cfg.DisableIsolation {
		return d.p3.CommitInBand(t.band, obj, bundles)
	}
	if err := t.admit(); err != nil {
		return err
	}
	ctx := sim.WithTenant(context.Background(), t.id)
	pt, err := d.p3.PrepareCommit(ctx, t.band, obj, bundles)
	if err != nil {
		return err
	}
	defer pt.Release()
	return d.comb.send(ctx, pt)
}
