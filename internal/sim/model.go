package sim

import "time"

// OpKind enumerates every simulated service request type.
type OpKind uint8

// Service request kinds. The names follow the REST verbs the paper uses.
const (
	OpS3Get OpKind = iota
	OpS3Head
	OpS3Put
	OpS3Copy
	OpS3Delete
	OpS3List
	OpSDBGet
	OpSDBSelect
	OpSDBPut
	OpSDBBatchPut
	OpSDBDelete
	OpSDBBatchDelete
	OpSQSSend
	OpSQSReceive
	OpSQSDelete
	OpSQSSendBatch
	OpSQSDeleteBatch
	numOps
)

// String returns the op's wire-style name ("s3.PUT", "sdb.Select"): the kind
// it is metered and fault-planned under.
func (o OpKind) String() string {
	if o < numOps {
		return opSpecs[o].name
	}
	return "op.unknown"
}

// gateID selects a per-host request-rate gate.
type gateID uint8

const (
	gateNone    gateID = iota
	gateS3Read         // S3 GET/HEAD/LIST
	gateS3Write        // S3 PUT/COPY/DELETE
	gateSDBRead        // SimpleDB GetAttributes/Select
	gateSDBWrite
	gateSQS
	numGates
)

// xferDir classifies a payload for transfer billing.
type xferDir uint8

const (
	xferNone xferDir = iota
	xferIn           // client -> cloud (request body)
	xferOut          // cloud -> client (response body)
)

// opSpec is everything the request envelope knows about an op kind: its
// metered name, whether it changes service state (and so may fail after being
// applied), its gate, billing class and transfer direction.
type opSpec struct {
	name       string
	mutating   bool
	gate       gateID
	cost       CostClass
	xfer       xferDir
	machineSec float64 // SimpleDB machine-seconds consumed
}

// opSpecs is indexed by OpKind.
var opSpecs = [numOps]opSpec{
	OpS3Get:       {name: "s3.GET", gate: gateS3Read, cost: CostS3Get, xfer: xferOut},
	OpS3Head:      {name: "s3.HEAD", gate: gateS3Read, cost: CostS3Get},
	OpS3Put:       {name: "s3.PUT", mutating: true, gate: gateS3Write, cost: CostS3Put, xfer: xferIn},
	OpS3Copy:      {name: "s3.COPY", mutating: true, gate: gateS3Write, cost: CostS3Put},  // server-side copy: no transfer
	OpS3Delete:    {name: "s3.DELETE", mutating: true, gate: gateS3Write, cost: CostFree}, // S3 DELETEs are free
	OpS3List:      {name: "s3.LIST", gate: gateS3Read, cost: CostS3Put, xfer: xferOut},    // LIST bills like PUT
	OpSDBGet:      {name: "sdb.GetAttributes", gate: gateSDBRead, cost: CostSDB, xfer: xferOut, machineSec: sdbReadMachineSec},
	OpSDBSelect:   {name: "sdb.Select", gate: gateSDBRead, cost: CostSDB, xfer: xferOut, machineSec: sdbSelectMachineSec},
	OpSDBPut:      {name: "sdb.PutAttributes", mutating: true, gate: gateSDBWrite, cost: CostSDB, xfer: xferIn, machineSec: sdbPutMachineSec},
	OpSDBBatchPut: {name: "sdb.BatchPutAttributes", mutating: true, gate: gateSDBWrite, cost: CostSDB, xfer: xferIn, machineSec: sdbBatchMachineSec},
	OpSDBDelete:   {name: "sdb.DeleteAttributes", mutating: true, gate: gateSDBWrite, cost: CostSDB, machineSec: sdbPutMachineSec},
	// The paper never deletes in bulk, so the batch delete has no anchor in
	// its tables: it is modelled BatchPut-shaped (the write gate, one
	// admission and one billed request per call, the batch machine-seconds,
	// SDBBatchBase plus the per-item increment of unitLatency) on the
	// reasoning that un-indexing an item costs the service what indexing it
	// did.
	OpSDBBatchDelete: {name: "sdb.BatchDeleteAttributes", mutating: true, gate: gateSDBWrite, cost: CostSDB, machineSec: sdbBatchMachineSec},
	OpSQSSend:        {name: "sqs.SendMessage", mutating: true, gate: gateSQS, cost: CostSQS, xfer: xferIn},
	OpSQSReceive:     {name: "sqs.ReceiveMessage", gate: gateSQS, cost: CostSQS, xfer: xferOut},
	OpSQSDelete:      {name: "sqs.DeleteMessage", mutating: true, gate: gateSQS, cost: CostSQS},
	// Batch calls are one request at the gate and on the bill regardless of
	// how many entries they carry; the per-entry increment is unitLatency's.
	// This is what makes batching both faster and cheaper than entry-by-entry
	// calls in simulated time. (Like the batch delete above, the SQS batch
	// calls postdate the paper.)
	OpSQSSendBatch:   {name: "sqs.SendMessageBatch", mutating: true, gate: gateSQS, cost: CostSQS, xfer: xferIn},
	OpSQSDeleteBatch: {name: "sqs.DeleteMessageBatch", mutating: true, gate: gateSQS, cost: CostSQS},
}

// SimpleDB machine-second charges per request (billed at $0.14 per
// machine-hour in 2009). Writes are far more expensive than reads because
// SimpleDB indexes every attribute on write.
const (
	sdbReadMachineSec   = 0.0005
	sdbSelectMachineSec = 0.0025
	sdbPutMachineSec    = 0.012
	sdbBatchMachineSec  = 0.12
)

// Model is the calibrated latency/throughput model of the AWS services as
// the paper measured them. Every constant is anchored to a number in the
// paper; the calibration anchors are listed on baseModel below, and the op
// table above says which gate and billing class each request kind takes.
type Model struct {
	// Base request latencies (unloaded, from EC2).
	S3GetBase     time.Duration
	S3HeadBase    time.Duration
	S3PutBase     time.Duration
	S3CopyBase    time.Duration
	S3DeleteBase  time.Duration
	S3ListBase    time.Duration
	SDBReadBase   time.Duration
	SDBPutBase    time.Duration
	SDBBatchBase  time.Duration // base of a BatchPutAttributes call
	SDBBatchItem  time.Duration // additional latency per item in a batch
	SDBScanItem   time.Duration // SELECT query-engine time per item examined
	SQSSendBase   time.Duration
	SQSRecvBase   time.Duration
	SQSDeleteBase time.Duration
	SQSBatchEntry time.Duration // additional latency per entry in a batch call

	// Per-connection streaming bandwidths (bytes/second).
	S3ReadBps  float64
	S3WriteBps float64
	SDBReadBps float64
	SQSBps     float64

	// Per-host ceilings.
	HostNetBps float64 // host NIC cap shared by bulk transfers

	// Per-host request-rate ceilings (requests/second). These produce the
	// connection-scaling behaviour of §5.1: S3 and SQS keep scaling to 150
	// connections, SimpleDB writes peak around 40.
	S3ReadRate   float64
	S3WriteRate  float64
	SDBReadRate  float64
	SDBWriteRate float64
	SQSRate      float64

	// ClientPerOp is the native client-side cost of one fs-level op.
	ClientPerOp time.Duration
}

// UML penalties measured in §5.2: the Blast I/O time grows from 650 s native
// to 1322 s under UML across 10,773 ops (≈59 ms/op), and the nightly backup
// grows 419 s -> 528 s moving 10.2 GB (≈10.5 ms/MB).
const (
	umlPerOp     = 59 * time.Millisecond
	umlPerByteNs = 0.0105 // ns per byte == 10.5 ms per MB
)

// localRTT is the extra WAN round-trip latency each request pays when the
// client runs on a local machine instead of EC2.
const localRTT = 38 * time.Millisecond

// baseModel is the September-2009, EC2-sited model. Calibration anchors:
//
//   - Table 5, Q2 on S3: HEAD+GET == 0.060 s  -> S3 reads ≈ 29-31 ms.
//   - Table 5, Q1 on S3: 1671 sequential GETs == 48.57 s -> 29 ms each;
//     parallel 7.04 s -> read-rate ceiling ≈ 237/s.
//   - Table 5, Q1/Q3/Q4 on SimpleDB -> Select ≈ 21 ms + bytes at ≈3.8 MB/s.
//   - Table 2: 50 MB of provenance in 36.2 s on SQS at 150 connections
//     -> ≈177 msg/s host ceiling with ≈0.85 s per send;
//     324.7 s on S3 at 150 connections -> ≈80 put/s with ≈1.9 s per put;
//     537.1 s on SimpleDB peaking at 40 connections -> ≈5 batch/s with
//     ≈8 s per 25-item batch.
//   - §5.2 nightly: 10.2 GB in ≈419 s of native I/O -> ≈25 MB/s streams
//     under a ≈30 MB/s host NIC (EC2 Medium).
var baseModel = Model{
	S3GetBase:     28 * time.Millisecond,
	S3HeadBase:    30 * time.Millisecond,
	S3PutBase:     1580 * time.Millisecond,
	S3CopyBase:    1580 * time.Millisecond,
	S3DeleteBase:  120 * time.Millisecond,
	S3ListBase:    160 * time.Millisecond,
	SDBReadBase:   21 * time.Millisecond,
	SDBPutBase:    900 * time.Millisecond,
	SDBBatchBase:  2800 * time.Millisecond,
	SDBBatchItem:  110 * time.Millisecond,
	SDBScanItem:   10 * time.Microsecond,
	SQSSendBase:   720 * time.Millisecond,
	SQSRecvBase:   500 * time.Millisecond,
	SQSDeleteBase: 300 * time.Millisecond,
	SQSBatchEntry: 45 * time.Millisecond,

	S3ReadBps:  2.0e6,
	S3WriteBps: 25.0e6,
	SDBReadBps: 3.8e6,
	SQSBps:     1.0e6,

	HostNetBps: 30.0e6,

	S3ReadRate:   237,
	S3WriteRate:  95,
	SDBReadRate:  60,
	SDBWriteRate: 7.1,
	SQSRate:      210,

	ClientPerOp: 2 * time.Millisecond,
}

// dec09Factor scales service latencies for the December-2009 era; the paper
// observed 4-44% improvements between the measurement campaigns.
const dec09Factor = 0.78

// ModelFor derives the effective model for a configuration: the base model
// adjusted for era (service-side speedups) and site (WAN round trips).
func ModelFor(cfg Config) Model {
	m := baseModel
	if cfg.Era == EraDec09 {
		m.S3GetBase = scaleDur(m.S3GetBase, dec09Factor)
		m.S3HeadBase = scaleDur(m.S3HeadBase, dec09Factor)
		m.S3PutBase = scaleDur(m.S3PutBase, dec09Factor)
		m.S3CopyBase = scaleDur(m.S3CopyBase, dec09Factor)
		m.SDBReadBase = scaleDur(m.SDBReadBase, dec09Factor)
		m.SDBPutBase = scaleDur(m.SDBPutBase, dec09Factor)
		m.SDBBatchBase = scaleDur(m.SDBBatchBase, dec09Factor)
		m.SDBBatchItem = scaleDur(m.SDBBatchItem, dec09Factor)
		m.SDBScanItem = scaleDur(m.SDBScanItem, dec09Factor)
		m.SQSSendBase = scaleDur(m.SQSSendBase, dec09Factor)
		m.SQSRecvBase = scaleDur(m.SQSRecvBase, dec09Factor)
		m.SQSBatchEntry = scaleDur(m.SQSBatchEntry, dec09Factor)
		m.S3WriteRate /= dec09Factor
		m.SDBWriteRate /= dec09Factor
		m.SQSRate /= dec09Factor
	}
	if cfg.Site == SiteLocal {
		// Every request crosses the WAN, and streams run slower.
		add := localRTT
		m.S3GetBase += add
		m.S3HeadBase += add
		m.S3PutBase += add
		m.S3CopyBase += add
		m.S3DeleteBase += add
		m.S3ListBase += add
		m.SDBReadBase += add
		m.SDBPutBase += add
		m.SDBBatchBase += add
		m.SQSSendBase += add
		m.SQSRecvBase += add
		m.SQSDeleteBase += add
		m.S3WriteBps *= 0.55
		m.HostNetBps *= 0.55
		m.S3ReadBps *= 0.7
	}
	return m
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// latency returns the modelled service latency of one request with an
// nbytes payload, excluding gate queueing.
func (m Model) latency(op OpKind, nbytes int) time.Duration {
	b := float64(nbytes)
	switch op {
	case OpS3Get:
		return m.S3GetBase + bps(b, m.S3ReadBps)
	case OpS3Head:
		return m.S3HeadBase
	case OpS3Put:
		return m.S3PutBase + bps(b, m.S3WriteBps)
	case OpS3Copy:
		return m.S3CopyBase // server side, independent of object size
	case OpS3Delete:
		return m.S3DeleteBase
	case OpS3List:
		return m.S3ListBase + bps(b, m.S3ReadBps)
	case OpSDBGet, OpSDBSelect:
		return m.SDBReadBase + bps(b, m.SDBReadBps)
	case OpSDBPut:
		return m.SDBPutBase
	case OpSDBBatchPut:
		// nbytes carries the total payload; batches are also charged per
		// item through unitLatency.
		return m.SDBBatchBase + bps(b, m.SDBReadBps)
	case OpSDBDelete:
		return m.SDBPutBase
	case OpSDBBatchDelete:
		return m.SDBBatchBase // names only: no payload term
	case OpSQSSend:
		return m.SQSSendBase + bps(b, m.SQSBps)
	case OpSQSReceive:
		return m.SQSRecvBase + bps(b, m.SQSBps)
	case OpSQSDelete:
		return m.SQSDeleteBase
	case OpSQSSendBatch:
		return m.SQSSendBase + bps(b, m.SQSBps)
	case OpSQSDeleteBatch:
		return m.SQSDeleteBase
	}
	return 0
}

// unitLatency returns what one request pays, on top of latency and without
// jitter, for the units of work it carries beyond the first. A batch call is
// one gate admission and one billed request however many items or entries it
// holds, so this increment is all a full batch costs over a single call. For a
// SELECT the units are the items its access path examined: an indexed path
// examines only its predicate's candidates while a table scan examines every
// item, which is what separates the two in simulated time (their base and
// transfer terms are identical).
func (m Model) unitLatency(op OpKind, units int) time.Duration {
	var per time.Duration
	switch op {
	case OpSDBBatchPut, OpSDBBatchDelete:
		per = m.SDBBatchItem
	case OpSDBSelect:
		per = m.SDBScanItem
	case OpSQSSendBatch, OpSQSDeleteBatch:
		per = m.SQSBatchEntry
	}
	return time.Duration(max(units-1, 0)) * per
}

// gateInterval converts a rate ceiling into the gate admission interval.
func (m Model) gateInterval(g gateID) time.Duration {
	rate := 0.0
	switch g {
	case gateS3Read:
		rate = m.S3ReadRate
	case gateS3Write:
		rate = m.S3WriteRate
	case gateSDBRead:
		rate = m.SDBReadRate
	case gateSDBWrite:
		rate = m.SDBWriteRate
	case gateSQS:
		rate = m.SQSRate
	}
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / rate)
}

// bps converts a byte count and a bytes/second rate into a duration.
func bps(bytes, rate float64) time.Duration {
	if rate <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(bytes / rate * float64(time.Second))
}
