// Package translog is the tamper-evident transparency log over committed
// transactions: an RFC-6962-style append-only Merkle tree whose leaves are
// canonical encodings of the commits the fabric acknowledged, persisted to
// the object store as signed tree heads next to the ctl/fabric control
// object.
//
// §4.3.1 of the paper gives readers per-closure Merkle verification — a
// reader can check that one object's ancestry was not reordered or
// truncated. What nothing proved until now is the *history*: a store
// operator (or anyone with the credentials) could rewrite a committed
// provenance item, or excise a commit entirely, and no later reader would
// notice as long as the per-object digests were fixed up too. The
// transparency log closes that hole the way Certificate Transparency does
// for X.509: every commit becomes a leaf, the tree head is signed and
// published, and any attempt to rewrite history is caught by a proof that
// stops verifying.
//
// # What a leaf commits to
//
// The sequencer subscribes to core.CommitBus, so it observes commits in
// publication order — the same total order the subscribed query caches see.
// Each transaction becomes one Leaf: the txn uuid, the closure root the
// writer's WAL header declared, the directory epoch the items routed under,
// the simulated timestamp, and the (name, attribute-digest) pairs of every
// provenance item the transaction wrote. The leaf hash is the RFC 6962 leaf
// hash of the leaf's canonical JSON. Tree heads are therefore
// epoch-independent: a live reshard moves items between shards but changes
// neither names nor attributes, so the log is oblivious to topology — proofs
// issued before a 1→4 reshard verify unchanged after it.
//
// # What the log proves, and what it does not
//
// An inclusion proof (ProveInclusion) convinces a third party holding a
// signed tree head that a given transaction was committed — with exactly
// these items, this closure root, at this position in history. A consistency
// proof (merkle.LogConsistency) convinces a party holding an older signed head
// that the newer head extends it append-only: nothing was dropped, reordered
// or rewritten behind the verifier's back. Together with an external witness
// that remembers heads (the auditor, or anyone who stores one), this makes
// history rewriting evident: the forged log can sign new heads, but it
// cannot produce a consistency proof from any previously witnessed head.
//
// The log does NOT prove that the provenance content is *true* — a writer
// can commit garbage and the log will faithfully prove the garbage was
// committed. It does not prove completeness against a sequencer that never
// saw a commit: leaves buffered between checkpoints die with a crashed
// sequencer process, and the bus does not replay. Such gaps are detected,
// not healed — the auditor flags fabric items absent from the durable log as
// "unlogged" — which is the honest failure mode: detection, with recovery by
// administrative re-attestation, rather than silent self-repair.
//
// # Who holds the key
//
// Tree heads are signed with an Ed25519 key derived deterministically from
// the simulation seed (KeyFromEnv). The sequencer holds the private key; the
// auditor and any verifier need only the public half. The key attests "this
// head was issued by the log", nothing more — a compromised key lets an
// attacker sign forged heads, but still not produce consistency proofs
// against honestly witnessed ones.
//
// # Durability and crash safety
//
// Checkpoint persists, in order: the new leaf batch (log/entries/<start>),
// the signed head (log/heads/<size> and log/head), the sequencer checkpoint
// object (log/checkpoint: tree size, bus sequence, compact range), then
// prunes superseded head objects. Every stage is idempotent and each cursor
// only advances after its stage is durable, so a sequencer killed at any
// stage boundary rolls forward by re-running Checkpoint — exactly the
// ResumeReshard discipline — and re-derives byte-identical head bytes,
// because heads are functions of leaf content alone (the timestamp in a head
// is the last leaf's commit time, never the flush time). A cold start
// (OpenLog) rebuilds the tree from the persisted entries, cross-checks the
// checkpoint's compact range, and refuses to open a log whose persisted head
// does not match its own entries.
//
// # The auditor
//
// Audit replays the durable log against the fabric through consistent
// scans of every live domain shard (the AuditFabric discipline; it refuses
// to run during a migration window). It verifies every persisted head's
// signature and root, every leaf's inclusion proof, consistency between
// every pair of consecutive persisted heads and against an optional
// previously witnessed head, and then diffs leaves against the fabric:
// items the log promised but the fabric lost ("missing"), items whose
// attributes changed after commit ("tampered"), and fabric items no leaf
// accounts for ("unlogged"). A clean, settled, checkpointed fabric audits
// clean — the tamper-detection benchmark gates on zero false positives.
package translog
