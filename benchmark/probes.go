package main

import (
	"fmt"
	"runtime"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/merkle"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

// Layer replay probes: each layer's public API driven, alone and on the
// manual clock, with inputs captured from the workload the probe is reported
// under — never synthetic constants — and timed in ns/op with allocated
// bytes/op. They are the micro-benchmarks of ROADMAP item 3, and the unit
// costs the CPU attribution multiplies by the workload's operation counts.

// probeInput is what a workload hands the probes.
type probeInput struct {
	seed   int64
	k      int
	txns   []txn         // transactions the workload committed (or a sample)
	events []trace.Event // the system-call stream, where the workload has one
	items  []sdb.PutRequest
}

// unitCosts are the probe results the attribution needs (ns per operation).
type unitCosts struct {
	encodeNs, decodeNs        float64 // per bundle
	putNs                     float64 // per item
	sendNs, recvNs, delNs     float64 // per WAL message
	storePutNs, storeCopyNs   float64
	applyNs                   float64 // per trace event
	closureNs, closureRootNs  float64 // per commit
	ingestNs                  float64 // per logged transaction
	selectNs                  map[string]float64
	msgsPerTxn, bundlesPerTxn float64
}

// timeOps runs body, which performs n operations, and returns ns and
// allocated bytes per operation.
func timeOps(n int, body func()) (nsPerOp, allocPerOp float64) {
	if n <= 0 {
		return 0, 0
	}
	r0 := readRT()
	body()
	d := readRT().since(r0)
	return d.wallS * 1e9 / float64(n), d.allocBytes / float64(n)
}

func probeEnv(seed int64) *sim.Env {
	cfg := sim.DefaultConfig()
	cfg.Seed = envSeed(seed) ^ 0x9e37
	cfg.Consistency = sim.Strict
	return sim.NewEnv(cfg)
}

// The probes run on a prefix of the workload's transactions: at most
// maxProbeTxns of them and about maxProbeBundles bundles.
const (
	maxProbeTxns    = 1500
	maxProbeBundles = 20_000
)

// runProbes executes every probe the input supports and records the
// per-layer metrics.
func (h *harness) runProbes(in probeInput) unitCosts {
	var c unitCosts
	c.selectNs = map[string]float64{}
	txns := in.txns
	if len(txns) > maxProbeTxns {
		txns = txns[:maxProbeTxns]
	}
	for i, n := 0, 0; i < len(txns); i++ {
		if n += len(txns[i].bundles); n >= maxProbeBundles {
			txns = txns[:i+1]
			break
		}
	}

	// prov: the wire codec on the workload's own bundles.
	var payloads [][]byte
	var bundles int
	for _, t := range txns {
		bundles += len(t.bundles)
	}
	if bundles > 0 {
		ns, alloc := timeOps(bundles, func() {
			for _, t := range txns {
				payloads = append(payloads, prov.EncodeBundles(t.bundles))
			}
		})
		c.encodeNs = ns
		h.m.set("prov.encode_ns_per_bundle", ns)
		h.m.set("prov.encode_alloc_b_per_bundle", alloc)
		var wire int
		for _, p := range payloads {
			wire += len(p)
		}
		h.m.set("prov.wire_bytes_per_bundle", float64(wire)/float64(bundles))
		ns, alloc = timeOps(bundles, func() {
			for _, p := range payloads {
				if _, err := prov.DecodeBundles(p); err != nil {
					panic(fmt.Sprintf("probe: decoding what EncodeBundles produced: %v", err))
				}
			}
		})
		c.decodeNs = ns
		h.m.set("prov.decode_ns_per_bundle", ns)
		h.m.set("prov.decode_alloc_b_per_bundle", alloc)
		c.bundlesPerTxn = float64(bundles) / float64(len(txns))
	}

	// merkle: the closure root a client computes per close.
	if len(txns) > 0 {
		ns, _ := timeOps(len(txns), func() {
			for _, t := range txns {
				_ = core.ClosureRoot(t.bundles)
			}
		})
		c.closureRootNs = ns
		h.m.set("merkle.closure_root_ns_per_commit", ns)
	}

	// cloud/sqs: a standalone queue fed the workload's payloads cut into
	// WAL-sized messages, ten per batch call.
	env := probeEnv(in.seed)
	var msgs [][]byte
	for _, p := range payloads {
		for off := 0; off < len(p); off += core.DefaultChunkSize {
			msgs = append(msgs, p[off:min(off+core.DefaultChunkSize, len(p))])
		}
	}
	if len(msgs) > 0 {
		c.msgsPerTxn = float64(len(msgs)) / float64(len(txns))
		q := sqs.New(env, "probe-wal")
		ns, _ := timeOps(len(msgs), func() {
			for lo := 0; lo < len(msgs); lo += sqs.MaxBatchEntries {
				if _, err := q.SendMessageBatch(msgs[lo:min(lo+sqs.MaxBatchEntries, len(msgs))]); err != nil {
					panic(fmt.Sprintf("probe: sqs send: %v", err))
				}
			}
		})
		c.sendNs = ns
		h.m.set("sqs.send_ns_per_msg", ns)
		var receipts []string
		ns, _ = timeOps(len(msgs), func() {
			for len(receipts) < len(msgs) {
				page := q.ReceiveMessage(sqs.MaxBatchEntries)
				if len(page) == 0 {
					break
				}
				for _, m := range page {
					receipts = append(receipts, m.ReceiptHandle)
				}
			}
		})
		c.recvNs = ns
		h.m.set("sqs.receive_ns_per_msg", ns)
		ns, _ = timeOps(len(receipts), func() {
			for lo := 0; lo < len(receipts); lo += sqs.MaxBatchEntries {
				if err := q.DeleteMessageBatch(receipts[lo:min(lo+sqs.MaxBatchEntries, len(receipts))]); err != nil {
					panic(fmt.Sprintf("probe: sqs delete: %v", err))
				}
			}
		})
		c.delNs = ns
		h.m.set("sqs.delete_ns_per_msg", ns)
	}

	// cloud/store: the temporary-object PUT and the COPY into place.
	if len(txns) > 0 {
		st := store.New(env)
		n := len(txns)
		ns, _ := timeOps(n, func() {
			for i, t := range txns {
				if err := st.PutSized(fmt.Sprintf("tmp/%d", i), max(t.obj.Size, 1), nil); err != nil {
					panic(fmt.Sprintf("probe: store put: %v", err))
				}
			}
		})
		c.storePutNs = ns
		h.m.set("store.put_ns", ns)
		meta := store.Metadata{core.MetaUUID: "u", core.MetaVersion: "1"}
		ns, _ = timeOps(n, func() {
			for i := range txns {
				if err := st.Copy(fmt.Sprintf("tmp/%d", i), fmt.Sprintf("data/%d", i), meta); err != nil {
					panic(fmt.Sprintf("probe: store copy: %v", err))
				}
			}
		})
		c.storeCopyNs = ns
		h.m.set("store.copy_ns", ns)
	}

	// cloud/sdb: put/index and the four SELECT shapes the engine issues,
	// on a K-way domain set holding the workload's items.
	items := in.items
	if len(items) == 0 {
		for _, t := range txns {
			reqs, err := core.ItemsForBundles(store.New(env), t.bundles)
			if err != nil {
				panic(fmt.Sprintf("probe: items: %v", err))
			}
			items = append(items, reqs...)
		}
	}
	if len(items) > 0 {
		runtime.GC()
		heap0 := liveHeapMB()
		set := sdb.NewSet(env, core.DomainName, max(in.k, 1))
		ns, alloc := timeOps(len(items), func() {
			if err := set.BulkPut(items, 16, false); err != nil {
				panic(fmt.Sprintf("probe: sdb put: %v", err))
			}
		})
		c.putNs = ns
		h.m.set("sdb.put_ns_per_item", ns)
		h.m.set("sdb.put_alloc_b_per_item", alloc)
		h.m.set("sdb.live_bytes_per_item", (liveHeapMB(set)-heap0)*(1<<20)/float64(len(items)))
		for shape, ns := range probeSelects(set, items) {
			c.selectNs[shape] = ns
			h.m.set("sdb.select_ns."+shape, ns)
		}
		// sim: routing a key through the placement directory.
		dir := set.Directory()
		ns, _ = timeOps(len(items), func() {
			for _, it := range items {
				_ = dir.Route(sdb.RouteKey(it.Item))
			}
		})
		h.m.set("sim.route_ns_per_key", ns)
	}

	// pass: the collector on the workload's own system-call stream.
	if len(in.events) > 0 {
		col := pass.New(newRNG(in.seed, "probe/pass"), nil)
		var closes []string
		ns, alloc := timeOps(len(in.events), func() {
			for _, ev := range in.events {
				if err := col.Apply(ev); err != nil {
					panic(fmt.Sprintf("probe: collector: %v", err))
				}
			}
		})
		c.applyNs = ns
		h.m.set("pass.apply_ns_per_event", ns)
		h.m.set("pass.alloc_b_per_event", alloc)
		for _, ev := range in.events {
			if ev.Kind == trace.Close && len(ev.Path) > 4 && ev.Path[:4] == "mnt/" {
				closes = append(closes, ev.Path)
			}
		}
		if len(closes) > 0 {
			ns, _ = timeOps(len(closes), func() {
				for _, p := range closes {
					b := col.PendingFor(p)
					_ = col.FullClosureFor(p)
					for _, x := range b {
						col.MarkRecorded(x.Ref)
					}
				}
			})
			c.closureNs = ns
			h.m.set("pass.closure_ns_per_commit", ns)
		}
	}

	// translog and merkle: sequencing the workload's transactions, the
	// root a checkpoint signs, and the proofs an auditor asks for.
	if len(txns) > 0 {
		l := translog.New(env, store.New(env), "")
		src := newRNG(in.seed, "probe/translog")
		notices := make([]core.CommitNotice, len(txns))
		ids := make([]uuid.UUID, len(txns))
		for i, t := range txns {
			reqs, err := core.ItemsForBundles(store.New(env), t.bundles)
			if err != nil {
				panic(fmt.Sprintf("probe: items: %v", err))
			}
			ids[i] = uuid.New(src)
			n := core.CommitNotice{Seq: int64(i + 1), Txns: []uuid.UUID{ids[i]}, Digests: []string{""}}
			for _, r := range reqs {
				n.Items = append(n.Items, core.NoticeItem{Txn: ids[i], Name: r.Item, Attrs: r.Attrs})
			}
			notices[i] = n
		}
		ns, _ := timeOps(len(notices), func() {
			for _, n := range notices {
				l.Ingest(n)
			}
		})
		c.ingestNs = ns
		h.m.set("translog.ingest_ns_per_txn", ns)
		proofs := min(len(ids), 50)
		ns, _ = timeOps(proofs, func() {
			for i := 0; i < proofs; i++ {
				p, err := l.ProveInclusion(ids[i*len(ids)/proofs])
				if err != nil || !p.Verify() {
					panic(fmt.Sprintf("probe: inclusion proof: %v", err))
				}
			}
		})
		h.m.set("translog.proof_ns", ns)

		hashes := make([]merkle.Digest, len(l.Leaves()))
		for i, lf := range l.Leaves() {
			hashes[i] = lf.Hash()
		}
		var root merkle.Digest
		ns, _ = timeOps(len(hashes), func() { root = merkle.LogRoot(hashes) })
		h.m.set("merkle.log_root_ns_per_leaf", ns)
		ns, _ = timeOps(proofs, func() {
			for i := 0; i < proofs; i++ {
				at := i * len(hashes) / proofs
				path := merkle.LogInclusion(hashes, at)
				if !merkle.VerifyLogInclusion(hashes[at], at, len(hashes), path, root) {
					panic("probe: merkle inclusion does not verify")
				}
			}
		})
		h.m.set("merkle.inclusion_ns", ns)
	}

	h.probeServiceTimes(in, items, msgs)
	return c
}

// probeSelects times the four SELECT shapes the query engine issues, each
// bound to names, uuids and refs taken from items.
func probeSelects(set *sdb.DomainSet, items []sdb.PutRequest) map[string]float64 {
	out := map[string]float64{}
	n := min(len(items), 400)
	step := len(items) / n
	pick := func(i int) sdb.PutRequest { return items[i*step] }
	attr := func(r sdb.PutRequest, name string) string {
		for _, a := range r.Attrs {
			if a.Name == name {
				return a.Value
			}
		}
		return ""
	}
	// Each shape is reported per SELECT request: a scatter over K shards is
	// K requests, which is how the meter (and the attribution) counts them.
	run := func(shape string, q func(r sdb.PutRequest) (int, error)) {
		requests := 0
		ns, _ := timeOps(n, func() {
			for i := 0; i < n; i++ {
				reqs, err := q(pick(i))
				if err != nil {
					panic(fmt.Sprintf("probe: select %s: %v", shape, err))
				}
				requests += reqs
			}
		})
		out[shape] = ns * float64(n) / float64(max(requests, 1))
	}
	// attr_eq: the indexed attribute equality behind find-by-name (scatter).
	run("attr_eq", func(r sdb.PutRequest) (int, error) {
		q := sdb.Query{Domain: core.DomainName, ItemOnly: true, Where: sdb.Eq(prov.AttrName, attr(r, prov.AttrName))}
		_, reqs, _, err := set.SelectAllQuery(q)
		return reqs, err
	})
	// versions: the routed item-name prefix scan behind ReadProvenance.
	run("versions", func(r sdb.PutRequest) (int, error) {
		u := sdb.RouteKey(r.Item)
		q := sdb.Query{Domain: core.DomainName, Where: sdb.Like(sdb.ItemNameKey, u+"_%")}
		_, reqs, _, err := set.SelectAllRouted(u, q)
		return reqs, err
	})
	// children: the reverse-edge IN lookup of a descendants level (scatter).
	run("children", func(r sdb.PutRequest) (int, error) {
		q := sdb.Query{Domain: core.DomainName, ItemOnly: true, Where: sdb.In(prov.AttrInput, r.Item)}
		_, reqs, _, err := set.SelectAllQuery(q)
		return reqs, err
	})
	// items_in: the batched item fetch of an ancestors level (scatter).
	run("items_in", func(r sdb.PutRequest) (int, error) {
		q := sdb.Query{Domain: core.DomainName, Where: sdb.In(sdb.ItemNameKey, r.Item)}
		_, reqs, _, err := set.SelectAllQuery(q)
		return reqs, err
	})
	return out
}

// probeServiceTimes reads the modelled service time of the eight request
// kinds on the commit and query paths: one call each on an idle
// manual-clock environment, sized like the workload's own requests.
func (h *harness) probeServiceTimes(in probeInput, items []sdb.PutRequest, msgs [][]byte) {
	env := probeEnv(in.seed + 1)
	simMs := func(name string, call func()) {
		t0 := env.Now()
		call()
		h.m.set("sim.service_ms."+name, ms(env.Now()-t0))
	}
	q := sqs.New(env, "probe-svc")
	batch := msgs[:min(len(msgs), max(1, int(float64(len(msgs))/float64(max(len(in.txns), 1))+0.5)))]
	if len(batch) > sqs.MaxBatchEntries {
		batch = batch[:sqs.MaxBatchEntries]
	}
	if len(batch) == 0 {
		batch = [][]byte{[]byte("x")}
	}
	simMs("sqs_send_batch", func() { _, _ = q.SendMessageBatch(batch) })
	var receipts []string
	simMs("sqs_receive", func() {
		for _, m := range q.ReceiveMessage(sqs.MaxBatchEntries) {
			receipts = append(receipts, m.ReceiptHandle)
		}
	})
	simMs("sqs_delete_batch", func() { _ = q.DeleteMessageBatch(receipts) })

	dom := sdb.New(env, core.DomainName)
	put := items[:min(len(items), sdb.MaxBatchItems)]
	if len(put) == 0 {
		put = []sdb.PutRequest{{Item: "probe_1", Attrs: []sdb.Attr{{Name: "type", Value: "file"}}, Replace: true}}
	}
	simMs("sdb_batch_put", func() { _ = dom.BatchPutAttributes(put) })
	simMs("sdb_select", func() {
		_, _ = dom.SelectQuery(sdb.Query{Domain: core.DomainName, Where: sdb.In(sdb.ItemNameKey, put[0].Item)}, "")
	})

	st := store.New(env)
	size := int64(4096)
	for _, t := range in.txns {
		if t.obj.Size > 0 {
			size = t.obj.Size
			break
		}
	}
	simMs("s3_put", func() { _ = st.PutSized("tmp/p", size, nil) })
	simMs("s3_copy", func() { _ = st.Copy("tmp/p", "data/p", nil) })
	simMs("s3_delete", func() { _ = st.Delete("tmp/p") })
}

// calibrateTracer measures what recording one span costs, so the traced run
// can state its own overhead.
func calibrateTracer() time.Duration {
	t := newTracer(func() time.Duration { return time.Since(procStart) })
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start(int64(i), 0, "calibrate"))
	}
	return time.Since(t0) / n
}
