package bench

import (
	"runtime"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// Table 2 of the paper: upload 50 MB of provenance (captured from a Linux
// compile) to each service in isolation, each at its best connection
// count — 150 for S3 and SQS, 40 for SimpleDB (where throughput peaks).

// Table2Row is one service's measurement.
type Table2Row struct {
	Service  string
	Conns    int
	Elapsed  time.Duration
	Requests int64
}

// Table2Size is the provenance volume uploaded (50 MB, as in the paper).
const Table2Size = 50 << 20

// uploadS3 stores the provenance as objects, conns at a time. The upload
// tool groups each compilation unit's bundles (source, process, object)
// into one store object, the way P1 groups an object's provenance.
func uploadS3(env *sim.Env, bundles []prov.Bundle, conns int) {
	st := store.New(env)
	var groups [][]prov.Bundle
	var cur []prov.Bundle
	for _, b := range bundles {
		cur = append(cur, b)
		// A unit closes at its object file (the node that consumes the
		// process); headers and stragglers flush with the next unit.
		if len(b.Records) > 0 && b.Type == prov.File && len(cur) >= 3 {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	par.ForEach(conns, len(groups), func(i int) error {
		g := groups[i]
		st.Put(core.ProvKey(g[len(g)-1].Ref.UUID), prov.EncodeBundles(g), nil)
		return nil
	})
}

// uploadSDB stores the bundles as items in 25-item batches, conns at a time.
func uploadSDB(env *sim.Env, bundles []prov.Bundle, conns int) error {
	dom := sdb.New(env, core.DomainName)
	st := store.New(env) // spill target for >1KB values
	type batch []sdb.PutRequest
	var batches []batch
	var cur batch
	for _, b := range bundles {
		var attrs []sdb.Attr
		for _, r := range b.Records {
			v := r.Value
			if r.IsXref() {
				v = r.Xref.String()
			} else if len(v) > sdb.MaxValueLen {
				key := core.SpillPrefix + b.Ref.String()
				st.Put(key, []byte(v), nil)
				v = core.SpillMarker + key
			}
			attrs = append(attrs, sdb.Attr{Name: r.Attr, Value: v})
		}
		cur = append(cur, sdb.PutRequest{Item: b.Ref.String(), Attrs: attrs, Replace: true})
		if len(cur) == sdb.MaxBatchItems {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return par.ForEach(conns, len(batches), func(i int) error { return dom.BatchPutAttributes(batches[i]) })
}

// uploadSQSPayload chunks an encoded provenance payload into 8 KB messages,
// conns at a time.
func uploadSQSPayload(env *sim.Env, payload []byte, conns int) error {
	q := sqs.New(env, "prov-upload")
	var chunks [][]byte
	for start := 0; start < len(payload); start += sqs.MaxMessageSize {
		end := start + sqs.MaxMessageSize
		if end > len(payload) {
			end = len(payload)
		}
		chunks = append(chunks, payload[start:end])
	}
	return par.ForEach(conns, len(chunks), func(i int) error {
		_, err := q.SendMessage(chunks[i])
		return err
	})
}

// Table2 runs the three uploads. conns of zero uses the paper's tuned
// values (150/40/150); pass explicit values for the connection ablation.
func Table2(seed int64, scale float64, connsS3, connsSDB, connsSQS int) ([]Table2Row, error) {
	if connsS3 <= 0 {
		connsS3 = 150
	}
	if connsSDB <= 0 {
		connsSDB = 40
	}
	if connsSQS <= 0 {
		connsSQS = 150
	}
	if scale == 0 {
		scale = Table2Scale
	}
	bundles := workload.CompileProvenance(sim.NewRand(seed), Table2Size)
	run := func(name string, conns int, f func(*sim.Env) error) (Table2Row, error) {
		// Clear allocator debt from the previous phase so GC pauses do
		// not leak into this phase's scaled-time measurement.
		runtime.GC()
		env := sim.NewEnv(Setup{Seed: seed, Scale: scale}.envConfig())
		start := env.Now()
		if err := f(env); err != nil {
			return Table2Row{}, err
		}
		return Table2Row{
			Service:  name,
			Conns:    conns,
			Elapsed:  env.Now() - start,
			Requests: env.Meter().Usage().TotalOps,
		}, nil
	}
	s3row, err := run("S3", connsS3, func(e *sim.Env) error { uploadS3(e, bundles, connsS3); return nil })
	if err != nil {
		return nil, err
	}
	sdbRow, err := run("SimpleDB", connsSDB, func(e *sim.Env) error { return uploadSDB(e, bundles, connsSDB) })
	if err != nil {
		return nil, err
	}
	// The queue phase needs only the encoded payload; release the bundle
	// structures first so GC pressure from the 50 MB stream does not skew
	// the scaled-time measurement.
	payload := prov.EncodeBundles(bundles)
	bundles = nil
	sqsRow, err := run("SQS", connsSQS, func(e *sim.Env) error { return uploadSQSPayload(e, payload, connsSQS) })
	if err != nil {
		return nil, err
	}
	return []Table2Row{s3row, sdbRow, sqsRow}, nil
}
