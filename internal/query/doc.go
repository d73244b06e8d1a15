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
// (dbSource.children), with its readahead along version chains. It routes
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
//     is a K-way scatter, because a child lives on its own uuid's shard.
//     Short of a terminal level, a partial batch, the roots' included, is
//     padded with later versions of its refs that descend from (a root:
//     have) an earlier version, within the depth left; the walk keeps what
//     the pads answer, so a version chain from any version costs one round
//     per 20 versions, and a level whose refs were all answered asks nothing;
//   - Ancestors fetches each level's bundles with itemName() IN batches,
//     each split across the refs' home shards (at most min(K, refs)
//     requests), and follows their cross references upward; a partial
//     batch is padded with earlier versions of its own refs, which share
//     their shards, so a version run costs one request per 20 versions
//     instead of one per level;
//   - All drains SELECT * across all shards in parallel.
//
// Every other SELECT drains into a pooled sdb.Result: the source decodes it
// into bundles and refs, which keep only strings viewing the store's
// append-only bytes, and hands it back zeroed before the step returns, so
// nothing the engine returns holds a buffer's items, attributes or slabs.
//
// # Filters and pushdown
//
// Filters select output, never the walk: a filtered-out process node still
// conducts the walk to the file outputs behind it, and a filtered result
// always carries its bundle. On the database backend the conjunctive prefix
// of a Filter is lowered into the SELECTs a plan makes anyway (see
// splitFilter and lowerFilter), which changes what they examine and ship,
// never the result stream; [Engine.SetPushdown] turns it off for ablation,
// and [Engine.Describe] spells out the split per plan.
//
// # The versioned read-through cache
//
// [Cache] sits under the database executor, and its documentation states
// the coherence contract: immutable item bodies, eventually consistent
// observations, commit-notice invalidation once [Engine.Subscribe] attaches
// it to the commit bus, and epoch tagging across reshard cutovers. Engines
// default to no cache, which keeps Q1–Q4 priced exactly as Table 5 measured
// them, and a cached engine filters client-side. [Cache.Stats] exposes the
// counters provctl's cache command reports.
//
// # Results and determinism
//
// Traversal levels are emitted in canonical ref order and scans in
// canonical name order, so a given (deployment, spec) pair streams
// identically at any shard count, worker count or cache state — the
// cross-shard equivalence tests pin this byte-for-byte. Each query's
// Table-5 metrics (virtual time, bytes moved, requests issued) come from
// [measured] via the wrappers.
package query
