package translog

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/merkle"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// Store keys, rooted next to core.FabricControlKey ("ctl/fabric") so the
// log's durable state lives with the rest of the fabric's control plane.
const (
	// DefaultPrefix roots the log's objects in the bucket.
	DefaultPrefix = "ctl/translog/"

	entriesDir    = "entries/"   // + zero-padded start index: one leaf batch
	headsDir      = "heads/"     // + zero-padded tree size: one signed head
	latestHeadKey = "head"       // most recent signed head
	checkpointKey = "checkpoint" // sequencer cursor: size, bus seq, compact range
)

// keepHeads bounds how many superseded signed heads stage 4 of Checkpoint
// retains for the auditor's consecutive-head consistency checks.
const keepHeads = 16

// Sequencer crash points, in Checkpoint stage order: each leaves the durable
// state exactly as a sequencer process killed at that boundary would.
const (
	CrashMidBatch sim.CrashPoint = "translog.mid-batch"         // leaf batch durable, head not written
	CrashPostHead sim.CrashPoint = "translog.post-head-write"   // signed head durable, checkpoint object stale
	CrashPreGC    sim.CrashPoint = "translog.pre-checkpoint-gc" // checkpoint durable, superseded heads not pruned
)

// LeafItem is one provenance item a leaf commits to: the item name and a
// digest of its attributes as stored.
type LeafItem struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// Leaf is the canonical encoding of one committed transaction. Its JSON
// marshalling is the byte string the leaf hash covers, so the field set and
// order are part of the log's format.
type Leaf struct {
	Index    int        `json:"index"`
	Txn      string     `json:"txn"`
	Closure  string     `json:"closure,omitempty"` // hex closure root from the WAL header
	Epoch    int        `json:"epoch"`             // directory epoch the commit routed under
	SimNanos int64      `json:"sim_nanos"`         // simulated commit time
	Items    []LeafItem `json:"items"`
}

// Hash is the RFC 6962 leaf hash of the leaf's canonical encoding. A leaf
// whose encoding fits the stack buffer hashes without allocating.
func (lf Leaf) Hash() merkle.Digest {
	var buf [1024]byte
	return merkle.HashLeafBytes(lf.appendJSON(buf[:0]))
}

// appendJSON appends the leaf's canonical encoding to dst: byte for byte
// what json.Marshal writes for it, field order, omitempty and null included.
func (lf Leaf) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(lf.Index), 10)
	dst = append(dst, `,"txn":`...)
	dst = appendJSONString(dst, lf.Txn)
	if lf.Closure != "" {
		dst = append(dst, `,"closure":`...)
		dst = appendJSONString(dst, lf.Closure)
	}
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendInt(dst, int64(lf.Epoch), 10)
	dst = append(dst, `,"sim_nanos":`...)
	dst = strconv.AppendInt(dst, lf.SimNanos, 10)
	dst = append(dst, `,"items":`...)
	if lf.Items == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, it := range lf.Items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, it.Name)
		dst = append(dst, `,"digest":`...)
		dst = appendJSONString(dst, it.Digest)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes one with HTML escaping on: '"' and '\\' backslash-escaped, the
// control bytes \b \f \n \r \t short-escaped and the others as \u00XX,
// '<' '>' '&' as \u00XX, U+2028 and U+2029 as \u202X, and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// SignedHead is a signed commitment to the log's first TreeSize leaves.
// SimNanos is the last covered leaf's commit time (zero for an empty tree),
// never the flush time, so head bytes are a function of leaf content alone
// and a crashed sequencer re-derives them exactly.
type SignedHead struct {
	TreeSize int    `json:"tree_size"`
	Root     string `json:"root"` // hex RFC 6962 tree hash
	SimNanos int64  `json:"sim_nanos"`
	Sig      string `json:"sig"` // hex Ed25519 signature over signingPayload
}

// signingPayload is the domain-separated byte string a head's signature
// covers.
func signingPayload(size int, root string, simNanos int64) []byte {
	return []byte(fmt.Sprintf("passcloud/translog/v1\n%d\n%s\n%d\n", size, root, simNanos))
}

// Verify checks the head's signature against the log's public key.
func (h SignedHead) Verify(pub ed25519.PublicKey) bool {
	sig, err := hex.DecodeString(h.Sig)
	if err != nil {
		return false
	}
	return ed25519.Verify(pub, signingPayload(h.TreeSize, h.Root, h.SimNanos), sig)
}

// RootDigest decodes the head's tree hash.
func (h SignedHead) RootDigest() (merkle.Digest, error) {
	var d merkle.Digest
	raw, err := hex.DecodeString(h.Root)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("translog: bad head root %q", h.Root)
	}
	copy(d[:], raw)
	return d, nil
}

// KeyFromEnv derives the log's Ed25519 signing key deterministically from
// the simulation seed, so twin runs of one seed sign identical heads.
func KeyFromEnv(env *sim.Env) ed25519.PrivateKey {
	seed := sha256.Sum256([]byte("translog-ed25519\x00" + strconv.FormatInt(env.Config().Seed, 10)))
	return ed25519.NewKeyFromSeed(seed[:])
}

// checkpoint is the persisted sequencer cursor.
type checkpoint struct {
	TreeSize int      `json:"tree_size"`
	BusSeq   int64    `json:"bus_seq"`           // highest bus sequence folded in
	Compact  []string `json:"compact"`           // hex compact-range node snapshot
	Entries  []int    `json:"entries,omitempty"` // start index of every entry batch
}

// Log is the transparency log: the in-memory tree the sequencer grows plus
// the durable state Checkpoint maintains in the object store.
type Log struct {
	env    *sim.Env
	st     *store.Store
	prefix string
	key    ed25519.PrivateKey

	// ckptMu serializes whole Checkpoint runs (and the TamperDropLeaf hook,
	// which rewinds the cursors Checkpoint stages read). The daemon tick and
	// explicit Checkpoint calls run concurrently; without this a slow run
	// captured at size N could resume after a faster one finished at M>N and
	// overwrite its durable state with a truncated prefix. Lock order:
	// ckptMu before mu, never the reverse.
	ckptMu sync.Mutex

	mu     sync.Mutex
	leaves []Leaf
	hashes []merkle.Digest
	byTxn  map[uuid.UUID]int
	busSeq int64

	// Durability cursors: each advances only after its Checkpoint stage is
	// durable, so roll-forward after a crash re-runs exactly the stages
	// that did not complete.
	entriesAt  int   // leaves covered by persisted entry batches
	headAt     int   // tree size of the last persisted signed head
	ckptAt     int   // tree size of the last persisted checkpoint object
	entryStart []int // start index of every persisted entry batch
	gcPending  bool  // a new head was persisted; stale heads await pruning
	lastHead   SignedHead
}

// New returns an empty log persisting under prefix ("" means DefaultPrefix),
// signing with the environment-derived key.
func New(env *sim.Env, st *store.Store, prefix string) *Log {
	if prefix == "" {
		prefix = DefaultPrefix
	}
	return &Log{
		env:    env,
		st:     st,
		prefix: prefix,
		key:    KeyFromEnv(env),
		byTxn:  make(map[uuid.UUID]int),
	}
}

// Public returns the log's public verification key.
func (l *Log) Public() ed25519.PublicKey { return l.key.Public().(ed25519.PublicKey) }

// Size returns the number of leaves appended (persisted or not).
func (l *Log) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leaves)
}

// PersistedSize returns the tree size covered by the last durable signed
// head.
func (l *Log) PersistedSize() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headAt
}

// Head returns the last signed head Checkpoint persisted (zero value before
// the first checkpoint).
func (l *Log) Head() SignedHead {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastHead
}

// Leaves returns a copy of the leaf sequence (for auditing and display).
func (l *Log) Leaves() []Leaf {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Leaf(nil), l.leaves...)
}

// TreeHead computes the current (possibly unpersisted) tree head over all
// appended leaves.
func (l *Log) TreeHead() (size int, root merkle.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leaves), merkle.LogRoot(l.hashes)
}

// signHead signs a head over leaves[:size].
func (l *Log) signHead(size int, hashes []merkle.Digest, lastNanos int64) SignedHead {
	root := merkle.LogRoot(hashes[:size]).String()
	sig := ed25519.Sign(l.key, signingPayload(size, root, lastNanos))
	return SignedHead{TreeSize: size, Root: root, SimNanos: lastNanos, Sig: hex.EncodeToString(sig)}
}

// entryKey names the entry batch starting at leaf index start.
func (l *Log) entryKey(start int) string {
	return fmt.Sprintf("%s%s%012d", l.prefix, entriesDir, start)
}

// headKey names the signed head covering size leaves.
func (l *Log) headKey(size int) string {
	return fmt.Sprintf("%s%s%012d", l.prefix, headsDir, size)
}

// Checkpoint makes the log durable through the current tree size: leaf
// batch, signed head, checkpoint object, then head pruning, in that order,
// every stage idempotent. Re-running after any failure (a crash point, an
// injected fault) rolls the durable state forward; the returned head is
// byte-identical to what an uninterrupted run would have signed, because
// heads depend only on leaf content.
func (l *Log) Checkpoint() (SignedHead, error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	if err, _ := l.env.FaultPoint("translog", "translog.Checkpoint", true); err != nil {
		return SignedHead{}, err
	}

	l.mu.Lock()
	size := len(l.leaves)
	leaves := l.leaves[:size]
	hashes := l.hashes[:size]
	entriesAt, headAt, ckptAt := l.entriesAt, l.headAt, l.ckptAt
	busSeq := l.busSeq
	var lastNanos int64
	if size > 0 {
		lastNanos = leaves[size-1].SimNanos
	}
	l.mu.Unlock()

	// Stage 1 — leaf batch. A crashed prior attempt may have written this
	// key already; rewriting it with the (possibly longer) current tail
	// replaces the object with a superset, so recovery always sees
	// contiguous batches.
	if entriesAt < size {
		b, err := json.Marshal(leaves[entriesAt:size])
		if err != nil {
			return SignedHead{}, fmt.Errorf("translog: encoding entries: %w", err)
		}
		if err := l.st.Put(l.entryKey(entriesAt), b, nil); err != nil {
			return SignedHead{}, err
		}
		l.mu.Lock()
		l.entryStart = append(l.entryStart, entriesAt)
		l.entriesAt = size
		l.mu.Unlock()
	}
	if l.env.Crashed(CrashMidBatch) {
		return SignedHead{}, fmt.Errorf("%w: sequencer at %s", sim.ErrCrashed, CrashMidBatch)
	}

	// Stage 2 — signed head, the commitment a third party witnesses. The
	// per-size key is the auditable history; the latest-head key is the
	// discovery point.
	if headAt < size {
		h := l.signHead(size, hashes, lastNanos)
		b, err := json.Marshal(h)
		if err != nil {
			return SignedHead{}, fmt.Errorf("translog: encoding head: %w", err)
		}
		if err := l.st.Put(l.headKey(size), b, nil); err != nil {
			return SignedHead{}, err
		}
		if err := l.st.Put(l.prefix+latestHeadKey, b, nil); err != nil {
			return SignedHead{}, err
		}
		l.mu.Lock()
		l.headAt = size
		l.lastHead = h
		l.gcPending = true
		l.mu.Unlock()
		l.env.Meter().CountLogHead()
	}
	if l.env.Crashed(CrashPostHead) {
		return SignedHead{}, fmt.Errorf("%w: sequencer at %s", sim.ErrCrashed, CrashPostHead)
	}

	// Stage 3 — checkpoint object: the cursor a restarted sequencer (or a
	// cold OpenLog) cross-checks its rebuilt tree against.
	if ckptAt < size {
		l.mu.Lock()
		starts := append([]int(nil), l.entryStart...)
		l.mu.Unlock()
		cr := merkle.CompactRange(hashes[:size])
		ck := checkpoint{TreeSize: size, BusSeq: busSeq, Compact: make([]string, len(cr)), Entries: starts}
		for i, d := range cr {
			ck.Compact[i] = d.String()
		}
		b, err := json.Marshal(ck)
		if err != nil {
			return SignedHead{}, fmt.Errorf("translog: encoding checkpoint: %w", err)
		}
		if err := l.st.Put(l.prefix+checkpointKey, b, nil); err != nil {
			return SignedHead{}, err
		}
		l.mu.Lock()
		l.ckptAt = size
		l.mu.Unlock()
	}
	if l.env.Crashed(CrashPreGC) {
		return SignedHead{}, fmt.Errorf("%w: sequencer at %s", sim.ErrCrashed, CrashPreGC)
	}

	// Stage 4 — prune superseded heads beyond the retention window. Purely
	// garbage collection: losing this stage to a crash costs storage, never
	// correctness.
	l.mu.Lock()
	gc := l.gcPending
	l.mu.Unlock()
	if gc {
		keys, _, err := l.st.ListAll(l.prefix + headsDir)
		if err != nil {
			return SignedHead{}, err
		}
		for i := 0; i+keepHeads < len(keys); i++ {
			if err := l.st.Delete(keys[i]); err != nil {
				return SignedHead{}, err
			}
		}
		l.mu.Lock()
		l.gcPending = false
		l.mu.Unlock()
	}
	return l.Head(), nil
}

// Open rebuilds a log from its durable state: every persisted leaf batch in
// order, cross-checked against the checkpoint's compact range and the
// persisted head. It returns an error — tamper evidence, not a recoverable
// condition — if the persisted head does not match the tree the entries
// rebuild. Reads here are the store's eventually consistent reads; a
// recovering caller settles the staleness window first, exactly as the
// resharder does before cutover.
func Open(env *sim.Env, st *store.Store, prefix string) (*Log, error) {
	l := New(env, st, prefix)
	keys, _, err := st.ListAll(l.prefix + entriesDir)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		o, err := st.Get(k)
		if err != nil {
			return nil, fmt.Errorf("translog: reading %s: %w", k, err)
		}
		var batch []Leaf
		if err := json.Unmarshal(o.Data, &batch); err != nil {
			return nil, fmt.Errorf("translog: decoding %s: %w", k, err)
		}
		start := 0
		if len(batch) > 0 {
			start = batch[0].Index
		}
		if start > len(l.leaves) {
			return nil, fmt.Errorf("translog: entry gap: batch %s starts at %d, have %d leaves", k, start, len(l.leaves))
		}
		for _, lf := range batch {
			// A batch rewritten after a crash may overlap the previous one;
			// the overlap is byte-identical, so skip what is already loaded.
			if lf.Index < len(l.leaves) {
				continue
			}
			if lf.Index != len(l.leaves) {
				return nil, fmt.Errorf("translog: leaf index %d out of order in %s", lf.Index, k)
			}
			u, err := uuid.Parse(lf.Txn)
			if err != nil {
				return nil, fmt.Errorf("translog: leaf %d txn: %w", lf.Index, err)
			}
			l.byTxn[u] = lf.Index
			l.leaves = append(l.leaves, lf)
			l.hashes = append(l.hashes, lf.Hash())
		}
		l.entryStart = append(l.entryStart, start)
	}
	l.entriesAt = len(l.leaves)

	// Cross-check the checkpoint cursor, when one was persisted.
	if o, err := st.Get(l.prefix + checkpointKey); err == nil {
		var ck checkpoint
		if err := json.Unmarshal(o.Data, &ck); err != nil {
			return nil, fmt.Errorf("translog: decoding checkpoint: %w", err)
		}
		if ck.TreeSize > len(l.leaves) {
			return nil, fmt.Errorf("translog: checkpoint covers %d leaves, entries hold %d", ck.TreeSize, len(l.leaves))
		}
		cr := merkle.CompactRange(l.hashes[:ck.TreeSize])
		if len(cr) != len(ck.Compact) {
			return nil, fmt.Errorf("translog: checkpoint compact range width %d, rebuilt %d", len(ck.Compact), len(cr))
		}
		for i, d := range cr {
			if d.String() != ck.Compact[i] {
				return nil, fmt.Errorf("translog: checkpoint compact range node %d does not match rebuilt tree", i)
			}
		}
		l.busSeq = ck.BusSeq
		l.ckptAt = ck.TreeSize
	}

	// Cross-check and adopt the persisted head.
	if o, err := st.Get(l.prefix + latestHeadKey); err == nil {
		var h SignedHead
		if err := json.Unmarshal(o.Data, &h); err != nil {
			return nil, fmt.Errorf("translog: decoding head: %w", err)
		}
		if !h.Verify(l.Public()) {
			return nil, fmt.Errorf("translog: persisted head signature invalid")
		}
		if h.TreeSize > len(l.leaves) {
			return nil, fmt.Errorf("translog: head covers %d leaves, entries hold %d", h.TreeSize, len(l.leaves))
		}
		if got := merkle.LogRoot(l.hashes[:h.TreeSize]).String(); got != h.Root {
			return nil, fmt.Errorf("translog: persisted head root %s does not match entries (%s)", h.Root, got)
		}
		l.lastHead = h
		l.headAt = h.TreeSize
	}
	return l, nil
}

// InclusionProof proves that a transaction is in the log. The proof is
// against the current tree; Size/Root in the result tell the verifier which
// head it speaks to.
type InclusionProof struct {
	Txn      uuid.UUID
	Leaf     Leaf
	Index    int
	TreeSize int
	Root     merkle.Digest
	Path     []merkle.Digest
}

// ErrUnknownTxn is returned when a proof is requested for a transaction the
// log never saw.
var ErrUnknownTxn = errors.New("translog: transaction not in log")

// ProveInclusion builds the inclusion proof for txn against the current
// tree.
func (l *Log) ProveInclusion(txn uuid.UUID) (InclusionProof, error) {
	l.mu.Lock()
	i, ok := l.byTxn[txn]
	if !ok {
		l.mu.Unlock()
		return InclusionProof{}, fmt.Errorf("%w: %s", ErrUnknownTxn, txn)
	}
	p := InclusionProof{
		Txn:      txn,
		Leaf:     l.leaves[i],
		Index:    i,
		TreeSize: len(l.leaves),
		Root:     merkle.LogRoot(l.hashes),
		Path:     merkle.LogInclusion(l.hashes, i),
	}
	l.mu.Unlock()
	l.env.Meter().CountLogProof()
	return p, nil
}

// Verify checks the proof's path against its stated root.
func (p InclusionProof) Verify() bool {
	return merkle.VerifyLogInclusion(p.Leaf.Hash(), p.Index, p.TreeSize, p.Path, p.Root)
}

// ConsistencyProof builds the proof that the size-m tree is a prefix of the
// size-n tree (both sizes must be within the current log).
func (l *Log) ConsistencyProof(m, n int) ([]merkle.Digest, error) {
	l.mu.Lock()
	if m <= 0 || n < m || n > len(l.hashes) {
		l.mu.Unlock()
		return nil, fmt.Errorf("translog: consistency bounds %d..%d outside log of %d", m, n, len(l.hashes))
	}
	p := merkle.LogConsistency(l.hashes[:n], m)
	l.mu.Unlock()
	l.env.Meter().CountLogProof()
	return p, nil
}

// RootAt recomputes the tree hash over the first n leaves.
func (l *Log) RootAt(n int) (merkle.Digest, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 || n > len(l.hashes) {
		return merkle.Digest{}, fmt.Errorf("translog: size %d outside log of %d", n, len(l.hashes))
	}
	return merkle.LogRoot(l.hashes[:n]), nil
}

// TamperDropLeaf is the negative-control hook: it excises the leaf for txn
// — what a malicious log server hiding a commit would do — reindexes the
// tail, and resets the durability cursors so the next Checkpoint rewrites
// the forged history and signs a fresh head over it. Detection is the
// auditor's job: the forged log cannot prove consistency against any head
// witnessed before the tamper, and the excised transaction's fabric items
// become "unlogged".
func (l *Log) TamperDropLeaf(txn uuid.UUID) bool {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.byTxn[txn]
	if !ok {
		return false
	}
	l.leaves = append(l.leaves[:i], l.leaves[i+1:]...)
	l.hashes = l.hashes[:0]
	delete(l.byTxn, txn)
	for j := range l.leaves {
		l.leaves[j].Index = j
		u, _ := uuid.Parse(l.leaves[j].Txn)
		l.byTxn[u] = j
		l.hashes = append(l.hashes, l.leaves[j].Hash())
	}
	l.entriesAt, l.headAt, l.ckptAt = 0, 0, 0
	l.entryStart = nil
	l.lastHead = SignedHead{}
	return true
}

// ItemDigest is the canonical digest of an item's attributes as stored: a
// SHA-256 over the (name, value) pairs sorted by name then value, each
// field varint-length-prefixed so the encoding is injective — no attribute
// set can collide with a differently-split one, which matters when the
// digest is the tamper-evidence boundary. The sequencer digests what the
// commit notice carried; the auditor digests what the fabric serves;
// history was rewritten exactly when they differ.
//
// The attributes are sorted as a permutation and encoded into a stack
// buffer, so an item of up to 32 attributes and 1 KB of encoding allocates
// only the returned string.
func ItemDigest(attrs []sdb.Attr) string {
	var order [32]int
	idx := order[:0]
	for i := range attrs {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, func(i, j int) int {
		if c := strings.Compare(attrs[i].Name, attrs[j].Name); c != 0 {
			return c
		}
		return strings.Compare(attrs[i].Value, attrs[j].Value)
	})
	var buf [1024]byte
	enc := buf[:0]
	for _, i := range idx {
		enc = binary.AppendUvarint(enc, uint64(len(attrs[i].Name)))
		enc = append(enc, attrs[i].Name...)
		enc = binary.AppendUvarint(enc, uint64(len(attrs[i].Value)))
		enc = append(enc, attrs[i].Value...)
	}
	sum := sha256.Sum256(enc)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
