// Package frontdoor is the multi-tenant admission layer in front of a
// core.Deployment — the piece that turns a single-client protocol stack
// into a service edge that can take traffic from many tenants without one
// of them melting a shared shard.
//
// # Admission model
//
// Every tenant registers with a Quota and commits through its Tenant
// handle. Admission is a GCRA token bucket on the simulated clock: each
// commit needs one token, tokens accrue at Quota.Rate per second with
// Quota.Burst of headroom, and a commit that arrives ahead of its token
// waits in a bounded admission queue (the wait is virtual time — the
// commit sleeps until its theoretical arrival time). The queue bound is
// Quota.MaxQueue scaled by the tenant's Priority share, so when a shared
// fabric saturates, low-priority tenants are shed first and high-priority
// ones keep most of their queue depth — priority-aware load shedding
// rather than collapse.
//
// Overload is typed backpressure, not an opaque failure: a commit past the
// queue bound returns an *OverCapacityError (errors.Is-able as
// ErrOverCapacity) carrying the tenant and a RetryAfter hint in virtual
// time, the earliest point a retry could be admitted. Well-behaved clients
// sleep RetryAfter and retry; the admission state is not advanced for shed
// requests, so shedding never costs the tenant tokens.
//
// Every admission outcome is metered per tenant (sim.Meter's
// Usage.OpsByTenant: admitted / queued / shed) and surfaced by
// `provctl tenants stats`.
//
// # Placement: tenant identity folds into the routing key
//
// Each tenant owns a Band — one 1/256th slice of the routing-hash space,
// derived from its id (BandFor). Tenant.NewUUID mints object uuids inside
// the band (core.MintBandUUID) and Tenant.Commit mints transaction uuids
// the same way, so a tenant's provenance items and WAL traffic co-shard on
// the band's home shard and migrate together across reshards. The routing
// key is still the uuid itself, so routed reads, scatter-gather merges and
// the placement audit work unchanged; a tenant can be moved independently
// by resharding the range its band falls in.
//
// # Tenant-scoped retries
//
// The door does not retry. Every request it makes for a tenant — the
// temporary object's PUT and the WAL flush — carries the tenant in its
// context (sim.WithTenant), and the deployment's one retry layer retries it
// at its endpoint against the budget and breaker of that (endpoint, tenant)
// pair. An abusive tenant replaying a retry storm therefore exhausts only
// its own budgets and trips only its own breakers, while other tenants, and
// the fabric's own requests (commit daemons, resharder), keep theirs; and a
// persistently failing request costs exactly the policy's MaxAttempts.
//
// # WAL write combining
//
// Small transactions produce WAL batches far below the 10-entry
// SendMessageBatch limit. The door's combiner holds a commit's prepared
// entries (core.PrepareCommit) for a short window per home queue and tenant,
// and packs every entry of that tenant's callers that arrives within it into
// full batches — fewer billed requests and fewer rate-gate admissions on the
// hot shard. A retry is exactly-once: every entry carries its own
// idempotency token (txn uuid + chunk seq) and the queue deduplicates per
// entry (sqs.SendMessageBatchEntries), so a flush retried after an
// ambiguous fault never double-enqueues a packet that already landed.
//
// Config.DisableIsolation bypasses quotas, tenant-keyed retry state and
// combining (placement still applies) — the negative control the
// tenant-isolation bench uses to show the machinery is what holds the
// isolation bound.
package frontdoor
