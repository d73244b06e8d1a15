package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// CostClass buckets requests by how AWS billed them in 2009/2010.
type CostClass uint8

// Billing classes.
const (
	CostFree  CostClass = iota // e.g. S3 DELETE
	CostS3Put                  // S3 PUT/COPY/POST/LIST: $0.01 per 1,000
	CostS3Get                  // S3 GET/HEAD: $0.01 per 10,000
	CostSQS                    // SQS requests: $0.01 per 10,000
	CostSDB                    // SimpleDB requests (billed via machine hours)
	numCostClasses
)

// String names the billing class.
func (c CostClass) String() string {
	switch c {
	case CostFree:
		return "free"
	case CostS3Put:
		return "s3-put-like"
	case CostS3Get:
		return "s3-get-like"
	case CostSQS:
		return "sqs-request"
	case CostSDB:
		return "sdb-request"
	}
	return "unknown"
}

// The 2009/2010 AWS price sheet used throughout the evaluation.
const (
	PriceS3PutPer1000  = 0.01 // USD per 1,000 PUT/COPY/POST/LIST requests
	PriceS3GetPer10000 = 0.01 // USD per 10,000 GET/HEAD requests
	PriceSQSPer10000   = 0.01 // USD per 10,000 queue requests
	PriceSDBMachineHr  = 0.14 // USD per SimpleDB machine hour
	PriceXferInPerGB   = 0.10 // USD per GB transferred into AWS
	PriceXferOutPerGB  = 0.17 // USD per GB transferred out of AWS
	PriceStoragePerGBM = 0.15 // USD per GB-month of S3 storage
)

// Meter accumulates requests, transfer and storage so a run's dollar cost
// can be reported the way Table 4 does.
type Meter struct {
	mu               sync.Mutex
	requests         [numCostClasses]int64
	machineSec       float64
	bytesIn          int64
	bytesOut         int64
	stored           int64 // current storage footprint (bytes)
	peakStored       int64
	opsByKind        map[string]int64
	opsTotal         int64
	bytesByKind      map[string]int64
	opsByEndpoint    map[string]int64
	faultsTotal      int64
	faultsByEndpoint map[string]int64
	opsByTenant      map[string]*TenantOps
	itemsExamined    int64
	commitNotices    int64
	invalidations    int64
	coherenceHits    int64
	logAppends       int64
	logHeads         int64
	logProofs        int64
	logAudits        int64
	merkleMismatches int64
	gauges           map[string]int64
}

// TenantOps counts one tenant's admission outcomes at the front door (see
// internal/frontdoor): how many commits were admitted, how many of those had
// to wait in the bounded admission queue first, and how many were shed with
// backpressure instead of being allowed to overload the fabric.
type TenantOps struct {
	Admitted int64 `json:"admitted"` // commits let through (immediately or after queueing)
	Queued   int64 `json:"queued"`   // admitted commits that waited for a quota token
	Shed     int64 `json:"shed"`     // commits rejected over capacity (typed backpressure)
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{
		opsByKind:        make(map[string]int64),
		bytesByKind:      make(map[string]int64),
		opsByEndpoint:    make(map[string]int64),
		faultsByEndpoint: make(map[string]int64),
		opsByTenant:      make(map[string]*TenantOps),
		gauges:           make(map[string]int64),
	}
}

// SetGauge sets a named point-in-time gauge (last write wins) — how the
// autoscale sampler surfaces instantaneous signals like per-shard WAL
// backlog and rate-gate queue depth next to the cumulative counters.
func (m *Meter) SetGauge(name string, v int64) {
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// ReplaceGauges atomically replaces every gauge under prefix with vals
// (keyed by suffix, stored as prefix+suffix). Samplers that publish one
// gauge per live shard use it so a retired shard's gauge disappears instead
// of freezing at its last value.
func (m *Meter) ReplaceGauges(prefix string, vals map[string]int64) {
	m.mu.Lock()
	for k := range m.gauges {
		if strings.HasPrefix(k, prefix) {
			delete(m.gauges, k)
		}
	}
	for k, v := range vals {
		m.gauges[prefix+k] = v
	}
	m.mu.Unlock()
}

// CountRequest records n billed requests of class c.
func (m *Meter) CountRequest(c CostClass, n int64) {
	m.mu.Lock()
	m.requests[c] += n
	m.opsTotal += n
	m.mu.Unlock()
}

// CountOp records one op of a named kind for per-op reporting (Table 3).
func (m *Meter) CountOp(kind string, payload int64) {
	m.mu.Lock()
	m.opsByKind[kind]++
	m.bytesByKind[kind] += payload
	m.mu.Unlock()
}

// CountEndpointOp records one request against a named service endpoint (the
// "s3" bucket, a SimpleDB domain, an SQS queue) so sharded deployments can
// report how the load spread across their shards.
func (m *Meter) CountEndpointOp(endpoint string) {
	m.mu.Lock()
	m.opsByEndpoint[endpoint]++
	m.mu.Unlock()
}

// CountFault records one injected transient fault against a named endpoint
// (see faults.go), so chaos runs can report how much abuse the substrate
// absorbed.
func (m *Meter) CountFault(endpoint string) {
	m.mu.Lock()
	m.faultsTotal++
	m.faultsByEndpoint[endpoint]++
	m.mu.Unlock()
}

// tenantLocked returns (creating if needed) tenant's counter record.
func (m *Meter) tenantLocked(tenant string) *TenantOps {
	t := m.opsByTenant[tenant]
	if t == nil {
		t = &TenantOps{}
		m.opsByTenant[tenant] = t
	}
	return t
}

// CountTenantAdmitted records one admitted front-door commit for tenant.
func (m *Meter) CountTenantAdmitted(tenant string) {
	m.mu.Lock()
	m.tenantLocked(tenant).Admitted++
	m.mu.Unlock()
}

// CountTenantQueued records one commit that waited in tenant's bounded
// admission queue before being admitted.
func (m *Meter) CountTenantQueued(tenant string) {
	m.mu.Lock()
	m.tenantLocked(tenant).Queued++
	m.mu.Unlock()
}

// CountTenantShed records one commit shed with backpressure for tenant.
func (m *Meter) CountTenantShed(tenant string) {
	m.mu.Lock()
	m.tenantLocked(tenant).Shed++
	m.mu.Unlock()
}

// AddItemsExamined records how many candidate items a SELECT scan visited
// before predicate evaluation — the quantity SimpleDB's machine-hour billing
// is proportional to. Filter pushdown is judged against this counter.
func (m *Meter) AddItemsExamined(n int64) {
	m.mu.Lock()
	m.itemsExamined += n
	m.mu.Unlock()
}

// CountCommitNotice records one commit notification published to subscribed
// query caches.
func (m *Meter) CountCommitNotice() {
	m.mu.Lock()
	m.commitNotices++
	m.mu.Unlock()
}

// AddCacheInvalidations records n cached observations dropped by a commit
// notice.
func (m *Meter) AddCacheInvalidations(n int64) {
	m.mu.Lock()
	m.invalidations += n
	m.mu.Unlock()
}

// CountCoherenceHit records one cache hit served by a subscribed (coherent)
// cache — a read the fabric never saw because invalidation kept it safe.
func (m *Meter) CountCoherenceHit() {
	m.mu.Lock()
	m.coherenceHits++
	m.mu.Unlock()
}

// AddLogAppends records n transaction leaves appended to the transparency
// log by the sequencer.
func (m *Meter) AddLogAppends(n int64) {
	m.mu.Lock()
	m.logAppends += n
	m.mu.Unlock()
}

// CountLogHead records one signed tree head persisted by the sequencer.
func (m *Meter) CountLogHead() {
	m.mu.Lock()
	m.logHeads++
	m.mu.Unlock()
}

// CountLogProof records one inclusion or consistency proof served by the
// transparency log.
func (m *Meter) CountLogProof() {
	m.mu.Lock()
	m.logProofs++
	m.mu.Unlock()
}

// CountLogAudit records one auditor pass over the transparency log tail.
func (m *Meter) CountLogAudit() {
	m.mu.Lock()
	m.logAudits++
	m.mu.Unlock()
}

// CountMerkleMismatch records one closure whose persisted Merkle root failed
// verification against the provenance actually read back — previously only
// the caller of VerifyAncestry could see this.
func (m *Meter) CountMerkleMismatch() {
	m.mu.Lock()
	m.merkleMismatches++
	m.mu.Unlock()
}

// AddMachineSeconds records SimpleDB machine-seconds consumed.
func (m *Meter) AddMachineSeconds(s float64) {
	m.mu.Lock()
	m.machineSec += s
	m.mu.Unlock()
}

// AddTransferIn records bytes sent into the cloud.
func (m *Meter) AddTransferIn(n int64) {
	m.mu.Lock()
	m.bytesIn += n
	m.mu.Unlock()
}

// AddTransferOut records bytes served out of the cloud.
func (m *Meter) AddTransferOut(n int64) {
	m.mu.Lock()
	m.bytesOut += n
	m.mu.Unlock()
}

// AddStorage adjusts the current storage footprint by delta bytes.
func (m *Meter) AddStorage(delta int64) {
	m.mu.Lock()
	m.stored += delta
	if m.stored > m.peakStored {
		m.peakStored = m.stored
	}
	m.mu.Unlock()
}

// Usage is a point-in-time summary of everything the meter has seen.
type Usage struct {
	Requests    map[CostClass]int64
	TotalOps    int64
	MachineSec  float64
	BytesIn     int64
	BytesOut    int64
	Stored      int64
	PeakStored  int64
	OpsByKind   map[string]int64
	BytesByKind map[string]int64
	// OpsByEndpoint counts requests per named service endpoint (the "s3"
	// bucket, a domain or queue shard); endpoints that saw no traffic are
	// absent.
	OpsByEndpoint map[string]int64
	// Faults counts injected transient faults, in total and per endpoint;
	// endpoints that saw no faults are absent.
	Faults           int64
	FaultsByEndpoint map[string]int64
	// OpsByTenant counts front-door admission outcomes per tenant; tenants
	// that never hit a front door are absent.
	OpsByTenant map[string]TenantOps
	// ItemsExamined totals the candidate items visited by SELECT scans — the
	// per-item-examined quantity machine-hour billing scales with.
	ItemsExamined int64
	// CommitNotices, CacheInvalidations and CoherenceHits track the
	// commit-notification fan-out to subscribed query caches: notices
	// published, cached observations they dropped, and hits served coherently.
	CommitNotices      int64
	CacheInvalidations int64
	CoherenceHits      int64
	// LogAppends, LogHeads, LogProofs and LogAudits track the transparency
	// log: leaves appended by the sequencer, signed tree heads persisted,
	// proofs served, and auditor passes completed.
	LogAppends int64
	LogHeads   int64
	LogProofs  int64
	LogAudits  int64
	// MerkleMismatches counts closures whose pinned Merkle root failed
	// verification against the provenance read back (MerkleReport.Verified
	// false with a root present).
	MerkleMismatches int64
	// Gauges holds the last value of every point-in-time gauge (per-shard
	// WAL backlog, rate-gate queue depths); gauges never set are absent.
	Gauges map[string]int64
}

// Usage returns a copy of the meter's counters.
func (m *Meter) Usage() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := Usage{
		Requests:         make(map[CostClass]int64, numCostClasses),
		TotalOps:         m.opsTotal,
		MachineSec:       m.machineSec,
		BytesIn:          m.bytesIn,
		BytesOut:         m.bytesOut,
		Stored:           m.stored,
		PeakStored:       m.peakStored,
		OpsByKind:        make(map[string]int64, len(m.opsByKind)),
		BytesByKind:      make(map[string]int64, len(m.bytesByKind)),
		OpsByEndpoint:    make(map[string]int64, len(m.opsByEndpoint)),
		Faults:           m.faultsTotal,
		FaultsByEndpoint: make(map[string]int64, len(m.faultsByEndpoint)),
		OpsByTenant:      make(map[string]TenantOps, len(m.opsByTenant)),

		ItemsExamined:      m.itemsExamined,
		CommitNotices:      m.commitNotices,
		CacheInvalidations: m.invalidations,
		CoherenceHits:      m.coherenceHits,
		LogAppends:         m.logAppends,
		LogHeads:           m.logHeads,
		LogProofs:          m.logProofs,
		LogAudits:          m.logAudits,
		MerkleMismatches:   m.merkleMismatches,
	}
	for c := CostClass(0); c < numCostClasses; c++ {
		if m.requests[c] != 0 {
			u.Requests[c] = m.requests[c]
		}
	}
	for k, v := range m.opsByKind {
		u.OpsByKind[k] = v
	}
	for k, v := range m.bytesByKind {
		u.BytesByKind[k] = v
	}
	for k, v := range m.opsByEndpoint {
		u.OpsByEndpoint[k] = v
	}
	for k, v := range m.faultsByEndpoint {
		u.FaultsByEndpoint[k] = v
	}
	for k, v := range m.opsByTenant {
		u.OpsByTenant[k] = *v
	}
	if len(m.gauges) > 0 {
		u.Gauges = make(map[string]int64, len(m.gauges))
		for k, v := range m.gauges {
			u.Gauges[k] = v
		}
	}
	return u
}

// Cost converts usage into dollars, billing storage for the given window
// (zero bills requests and transfer only, matching Table 4's emphasis).
func (u Usage) Cost(storageWindow time.Duration) float64 {
	const gb = 1 << 30
	cost := float64(u.Requests[CostS3Put]) / 1000 * PriceS3PutPer1000
	cost += float64(u.Requests[CostS3Get]) / 10000 * PriceS3GetPer10000
	cost += float64(u.Requests[CostSQS]) / 10000 * PriceSQSPer10000
	cost += u.MachineSec / 3600 * PriceSDBMachineHr
	cost += float64(u.BytesIn) / gb * PriceXferInPerGB
	cost += float64(u.BytesOut) / gb * PriceXferOutPerGB
	if storageWindow > 0 {
		months := storageWindow.Hours() / (30 * 24)
		cost += float64(u.PeakStored) / gb * PriceStoragePerGBM * months
	}
	return cost
}

// String renders the usage as a short human-readable summary.
func (u Usage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d in=%.2fMB out=%.2fMB sdb=%.1fms stored=%.2fMB",
		u.TotalOps, mb(u.BytesIn), mb(u.BytesOut), u.MachineSec*1000, mb(u.Stored))
	if len(u.OpsByKind) > 0 {
		kinds := make([]string, 0, len(u.OpsByKind))
		for k := range u.OpsByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, u.OpsByKind[k])
		}
	}
	return b.String()
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }
