// Package fabric is the composition root of the P3 stack: the one place
// that wires the layers together and owns the lifecycle of what runs beside
// them. It is also the system map the other packages' comments point at.
//
// # Layers, in construction order
//
//	sim.Env            one clock, one meter, one seeded random source, the
//	                   latency model (sim/model.go holds the op table and its
//	                   calibration anchors); New passes the caller's
//	                   sim.Config through untouched
//	core.Deployment    the services: the object store, K SimpleDB domains
//	                   and K SQS WAL queues (each set a sim.EpochSet: the
//	                   shards behind an epoch-versioned range directory), and
//	                   the commit bus. Every request of every service goes
//	                   through its sim.Endpoint — fault point, retry layer,
//	                   rate gate, latency, bill, meters
//	sim.FaultInjector  the fault plan every endpoint consults per request
//	                   and the crash points the protocols consult between
//	                   requests
//	resilient.Client   retries, budgets, breakers and hedges between the
//	                   endpoints and everything above them: installed once,
//	                   on the environment (Deployment.SetResilience), so a
//	                   shard born mid-reshard has it from its first request;
//	                   the only retry layer, keyed by (endpoint, tenant)
//	                   for the front door's requests
//	core.P3            the protocol: clients log transactions to the WAL, a
//	                   commit-daemon pool drains it into the database and
//	                   the object store as a pipeline — receivers fold WAL
//	                   pages, one group former closes groups on full 25-item
//	                   batches (or after a poll interval), groups commit
//	                   concurrently, receipts are acknowledged ten at a time
//	frontdoor.Door     per-tenant admission, quotas and write combining in
//	                   front of P3.Commit
//	translog.Log       the RFC 6962 transparency log and its sequencer
//	query.Engine       the read path, here with a cache kept coherent by
//	                   commit notices
//	autoscale.Controller  samples the meter, decides K, drives Deployment.Reshard
//
// Everything from the front door down is built only when Config asks for it.
//
// # The commit bus
//
// core.Deployment.Commits carries one notice per committed group, published
// by the commit daemon after the group's BatchPutAttributes is acknowledged
// and before its data COPY, synchronously and in publication order. Two
// layers subscribe, and New attaches both: the transparency log (one leaf
// per transaction) and the engine's cache (drops exactly the observations
// the commit touched). Close detaches them.
//
// # The fault surface
//
// Both ways the simulation goes wrong run through sim.FaultInjector. A
// request fails: every sim.Endpoint asks Env.FaultPoint, the plan or a forced
// fault answers with a sim.TransientError, resilient.Client absorbs it. A
// process dies between two requests: a protocol asks Env.Crashed at a named
// sim.CrashPoint, a test arms it with CrashAt(point, n), and the one process
// that reaches it returns sim.ErrCrashed. Every point a P3 fabric can reach
// is a row of TestCrashRecovery's table, with what the dead process leaves
// and what Recover must restore; the P1/P2 client points are detection, not
// recovery (TestCouplingViolationDetectedP1P2, Table 1).
//
// # Lifecycle: stop before flip
//
// P3 is a lifecycle, not a constructor. Clients return from Commit once the
// WAL has the transaction; only "stop the daemons, then Settle" yields a
// final state (P3.Settle's own contract), so Stop joins every pool before
// anyone reads a bill or a digest.
//
// The clock has two modes. Experiments run on the scaled live clock and are
// verified on the manual clock, where a sleep returns at once and only moves
// simulated time. A daemon loop that polls and sleeps is therefore a busy
// loop on the manual clock: an idle RunDaemon worker adds its poll interval
// to simulated time on every spin, runs the clock past the WAL's four-day
// retention within milliseconds of real time, and the queue silently
// expires whatever another worker's group commit had not yet written.
// ToManual is the one correct order: signal the controller (it must stop
// deciding, but it may be inside a reshard whose copy phase waits on the
// WAL draining), stop and join the daemon pool and the sequencer, flip the
// clock, disarm the fault plan, then join the controller while Settle —
// whose rounds end when their work does — drains what the pool left.
// Nothing in the root module flips a clock under a running daemon; the
// repo-shape test in this package keeps it that way.
//
// # Lifecycle: restart
//
// Recover is the one restart, after any process died: it stops every loop
// in ToManual's order (the fault plan stays armed), waits out the WAL's
// visibility timeout, rolls the log forward and reopens it cold, rebuilds
// every process layer with New's code over the surviving environment and
// stores, then resumes a dead resharder, lets the controller close a decided
// record and settles. The environment and the deployment are the services
// and survive; no process layer keeps its in-memory state.
package fabric
