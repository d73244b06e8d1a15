// Package query is the declarative, composable provenance query layer over
// both storage backends.
//
// A query is a [Spec]: which nodes to start from (Roots — by object path,
// uuid, exact ref, or attribute predicate), which way to walk (Direction —
// self, versions, ancestors, descendants, all), how far (MaxDepth), what to
// keep ([Filter] — composable over type, name and attributes), and what to
// emit (Projection — refs or full bundles). [Engine.Run] plans and executes
// a Spec and streams results through an iter.Seq2 cursor, level by level
// for traversals, so callers consume pages instead of materializing whole
// closures; [Engine.Collect] and friends materialize when a slice is what
// the caller wants. The four queries of the paper's §5.3 are thin wrappers
// over four particular Specs ([Q1Spec] .. [Q4Spec]).
//
// # One executor, two sources
//
// §5.3 runs Q1–Q4 as one algorithm over two access paths, and so does Run:
// one executor (exec.go) resolves roots, walks Ancestors and Descendants
// level by level, applies the filter each node still owes and projects,
// over a source — the backend's access paths, and nothing else.
//
// The store source (source_s3.go, protocol P1) owns the scan-or-target
// decision. The store cannot index attributes, so any query that selects
// or filters by attribute must fetch every provenance object and evaluate
// locally — the whole-graph scan (LIST plus parallel GETs, bounded by
// Spec.Workers), where a child is any node that references another. Only
// queries that name their objects directly get targeted plans: Versions
// roots resolve through one HEAD per path and one GET per provenance
// object (Q2's two-request shape).
//
// The database source (source_db.go, P2/P3) owns the routing view, the
// read-through cache and its keys, IN batching, the reads a pushed filter
// fuses into, and the child lookup over the schema's indexed input edge
// (dbSource.children — where a reverse-edge read would land). It routes
// nothing itself: each SELECT goes to the snapshotted sdb.DomainView,
// whose read planner sends a predicate that pins item names to their home
// shards and any other to all K, merged in canonical name order either
// way ([Engine.Describe] asks the source which each step is):
//
//   - attribute roots are one indexed SELECT, a K-way scatter;
//   - Versions is a name-prefix SELECT routed to the uuid's home shard
//     (every version of an object co-shards): one request;
//   - Descendants runs one round of IN-batched SELECTs per DAG level
//     (SimpleDB allows 20 comparisons per predicate) on up to Spec.Workers
//     connections, following the schema's indexed input edges; each batch
//     is a K-way scatter, because a child lives on its own uuid's shard;
//   - Ancestors fetches each level's bundles with itemName() IN batches,
//     each split across the refs' home shards (at most min(K, refs)
//     requests), and follows their cross references upward;
//   - All drains SELECT * across all shards in parallel.
//
// # Filters and pushdown
//
// Filters never prune the traversal itself — a filtered-out process node
// still conducts the walk to the file outputs behind it — and a filtered
// result always carries its bundle (the plan had to fetch it to evaluate
// or prove the filter; the equivalence tests pin this shape on every
// plan). On the database backend the planner additionally lowers the
// conjunctive prefix of a Filter into the SELECT predicates themselves
// (see lowerFilter): type and attribute equalities, and name equalities,
// split into a pushed WHERE term plus a client-side residue whose
// conjunction is exactly the original filter. Pushdown engages where a
// SELECT already exists to narrow — whole-domain All scans, pure-attribute
// Self finds (root predicate and filter fuse into one SELECT), and the
// terminal level of a depth-bounded Descendants walk, where the pushed
// term joins the IN batch and the shard-side planner picks whichever
// branch examines fewer candidate items. Unbounded walks get no pushdown:
// every level feeds the frontier, so nothing can be dropped server-side.
// Pushdown changes what the SELECTs examine and ship, never the result
// stream; [Engine.SetPushdown] turns it off for ablation, and
// [Engine.Describe] spells out the pushed/residue split per plan.
//
// # The versioned read-through cache and its coherence contract
//
// [Cache] sits under the database executor. Items are named uuid_version
// and immutable once committed, so item-body entries need no invalidation;
// version sets, child sets and attribute matches are cached as eventually
// consistent observations (see the type's documentation). Repeated
// traversals over a settled corpus then stop re-billing SELECTs: the
// second identical BFS resolves entirely client-side. Engines default to
// no cache, which keeps Q1–Q4 priced exactly as Table 5 measured them.
// (A cached engine filters client-side: observations answer most reads
// before any SELECT is planned, so there is nothing to push into.)
//
// Three mechanisms bound how stale a served observation can be:
//
//   - [Engine.Subscribe] attaches the cache to the deployment's commit
//     bus. The P2/P3 commit paths piggyback a [core.CommitNotice] on the
//     write that persists each transaction's items, and the cache drops
//     exactly the observations that commit touched: the written uuids'
//     version sets, the child sets of every ref the items name as an
//     input, and every cached attribute root set the items' attributes
//     satisfy. A subscribed warm cache is coherent — byte-identical to an
//     uncached engine after every acknowledged commit — which is what the
//     coherent-reads benchmark gates at >= 2x lower simulated read cost.
//   - Observations are tagged with the directory epoch they were read
//     under. An unsubscribed cache refuses to serve an observation from a
//     superseded epoch (a reshard cutover changed the placement it was
//     derived through) and re-reads instead; subscribed caches serve
//     across epochs because notices keep them precise regardless of
//     placement.
//   - [Engine.SetStalenessBound] caps the age of served observations on
//     the simulated clock for engines that stay unsubscribed.
//
// [Cache.Stats] exposes the coherence counters (coherent hits,
// invalidations, epoch flushes, stale serves, expirations, subscription
// lag) that provctl's cache command reports.
//
// # Results and determinism
//
// Traversal levels are emitted in canonical ref order and scans in
// canonical name order, so a given (deployment, spec) pair streams
// identically at any shard count, worker count or cache state — the
// cross-shard equivalence tests pin this byte-for-byte. Each query's
// Table-5 metrics (virtual time, bytes moved, requests issued) come from
// [Engine.measure] via the wrappers.
package query
