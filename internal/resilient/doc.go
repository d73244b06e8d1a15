// Package resilient is the client-side fault-tolerance layer between the
// protocols and the simulated cloud services — the piece a production client
// gets from its SDK (gax/cenkalti-backoff style) and that the paper's
// prototype had to hand-roll around S3/SimpleDB/SQS throttling.
//
// One Client is installed per deployment, in one place: on the simulated
// environment (core.NewShardedDeployment installs a default one through
// Deployment.SetResilience, which calls sim.Env.SetRetry). Every request of
// the leaf services — store.Store, sdb.Domain, sqs.Queue — runs inside
// sim.Endpoint.Do, which makes its attempts as the environment's Client
// directs (Begin before the first, Next after each: Client.Do cut at the
// attempt), so every call site in core, query, reshard and the daemons is
// covered without per-path wiring and an endpoint a reshard creates is
// covered from its first request. Of(env) returns the installed client to
// the one caller that needs more, the hedged scatter-gather read. The layer
// is inert when no fault plan is armed: without transient errors, a request
// is a single call of the underlying op.
//
// It is the only retry layer: nothing above an endpoint retries a request
// that failed there, so a persistently failing request costs MaxAttempts
// service attempts, never a product of nested loops. A request made for a
// tenant (sim.WithTenant; the front door makes all of its requests so) runs
// against the state of its (endpoint, tenant) pair instead of the
// endpoint's, so one tenant's failures spend only its own budgets and open
// only its own breakers. Stats counts every request by endpoint and, in
// Tenants, the tenants' requests by tenant.
//
// Mechanisms, per endpoint (an endpoint is one service partition: the "s3"
// bucket, a SimpleDB domain like "prov-2", an SQS queue like "wal-1"), and
// per (endpoint, tenant):
//
//   - Exponential backoff with full jitter, clocked on the simulated clock:
//     retry n sleeps uniform [0, min(MaxBackoff, InitialBackoff·Mult^n)].
//     Only sim.IsTransient errors (injected SlowDown/ServiceUnavailable)
//     are retried; semantic errors surface on the first attempt.
//   - A retry budget (token bucket): retries spend a token, successes earn
//     a fraction back, so a dying endpoint degrades to fail-fast instead of
//     retry-storming the service.
//   - A circuit breaker: a run of consecutive transient failures opens the
//     endpoint for BreakerCooldown; calls fail fast (ErrCircuitOpen) until
//     a probe succeeds. Half-open elects exactly one probe — concurrent
//     callers keep failing fast until it resolves, so a thundering herd
//     cannot re-storm a recovering endpoint; a failed probe re-opens the
//     breaker for another cooldown.
//   - Request hedging (Hedged): a scatter-gather shard drain that has not
//     returned within HedgeAfter gets one duplicate attempt, first result
//     (by virtual completion time) wins — idempotent reads only. On a live
//     clock the attempts genuinely race; under a manual clock the race is
//     emulated sequentially (concurrent sleepers would add their delays to
//     the shared logical clock), so hedge decisions and counters stay
//     deterministic in chaos runs.
//
// Exactly-once composition: retried writes are safe because provenance
// items and store objects are immutable full-replaces, and retried WAL
// sends carry idempotency tokens (txn uuid + chunk sequence) that the queue
// deduplicates (sqs.Queue.SendMessageBatchIdem), so an ambiguous
// fail-applied fault plus a retry never double-enqueues a packet.
//
// Backoff delays draw from the client's own seeded stream (never the
// environment's), so enabling the layer does not perturb staleness or
// latency sampling: chaos runs stay content-equivalent to fault-free runs,
// which is what internal/bench's chaos harness pins.
package resilient
