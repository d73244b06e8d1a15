// Package sim provides the simulation substrate shared by the simulated
// cloud services: a virtual clock, a calibrated latency and throughput model
// for each service, a cost meter implementing the 2009/2010 AWS price sheet,
// and a deterministic seeded random source.
//
// Everything in this repository that "talks to the cloud" routes each
// request through its service's Endpoint (endpoint.go) — the one request
// envelope: a fault point, the client's retry layer (the only place a
// request is retried; keyed by tenant for a request made WithTenant), and
// Exec, which charges the request against the latency model (per-endpoint
// rate gate, host NIC, base latency, payload transfer time, per-unit work)
// and the cost meter. Experiments run the environment in live mode (virtual
// time is wall time multiplied by Config.TimeScale) so that concurrency
// effects are real; unit tests run in manual mode (TimeScale 0) where sleeps
// advance a logical clock instantly.
//
// The package also hosts the fabric's placement substrate (directory.go):
// an epoch-versioned range Directory over the 32-bit FNV hash space that
// maps routing keys (object/transaction uuids) to shards. An epoch is one
// immutable range→shard assignment; a live reshard opens a second (target)
// epoch, and for the duration of that double-write window writers put each
// item to the union of its two epoch homes while readers consult the same
// union — so queries stay byte-identical while a copier streams items
// between shards. Cutover atomically promotes the target epoch; core
// persists directory snapshots as an S3 control object so a restarted
// resharder can prove which epoch the fabric is in.
package sim

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Site is where the client (the PASS/PA-S3fs host) runs. The paper evaluates
// both an EC2 instance in the same region as the services and a local
// machine across a WAN.
type Site uint8

// Client locations from the evaluation.
const (
	SiteEC2   Site = iota // client on an EC2 instance near the services
	SiteLocal             // client on a local machine across the WAN
)

// String returns the site name used in the paper's figures.
func (s Site) String() string {
	if s == SiteLocal {
		return "Local"
	}
	return "EC2"
}

// Era selects the service-performance snapshot. The paper reports results
// from September 2009 and from December 2009/January 2010 and observes that
// AWS got 4-44% faster between the two.
type Era uint8

// Measurement eras from the evaluation.
const (
	EraSept09 Era = iota // September 2009 service performance
	EraDec09             // December 2009 / January 2010 service performance
)

// String returns the era label used in the paper's figures.
func (e Era) String() string {
	if e == EraDec09 {
		return "Dec09"
	}
	return "Sept09"
}

// Consistency selects the consistency model the services provide. AWS is
// eventually consistent; Azure is strict. The protocols are designed for the
// weaker (eventual) model.
type Consistency uint8

// Consistency models.
const (
	Eventual Consistency = iota // AWS-style eventual consistency
	Strict                      // Azure-style strict consistency
)

// String names the consistency model.
func (c Consistency) String() string {
	if c == Strict {
		return "strict"
	}
	return "eventual"
}

// Config holds every knob of a simulated environment.
type Config struct {
	// Seed makes the run deterministic (staleness sampling, jitter, uuids).
	Seed int64

	// TimeScale is the number of simulated seconds that elapse per real
	// second in live mode. Zero selects manual mode: sleeps advance a
	// logical clock without blocking, which is what unit tests want.
	TimeScale float64

	// Site is the client location (EC2 or local/WAN).
	Site Site

	// Era selects the September-2009 or December-2009 service speeds.
	Era Era

	// UML applies the User-Mode-Linux client-side I/O penalty the paper
	// measured (each file-system operation and each MB moved costs extra
	// client time under UML).
	UML bool

	// Consistency selects eventual (AWS) or strict (Azure) semantics.
	Consistency Consistency

	// StalenessMean is the mean of the exponential staleness window used
	// by eventually consistent reads. Zero uses DefaultStalenessMean.
	StalenessMean time.Duration

	// DupProb is the probability that the queue delivers a message twice
	// (at-least-once delivery). Zero disables duplication.
	DupProb float64

	// StorageWindow is how long stored bytes are billed for when costs are
	// reported (S3 bills per GB-month). Zero bills no storage time, which
	// matches the request+transfer dominated costs in the paper's Table 4.
	StorageWindow time.Duration
}

// DefaultStalenessMean is the mean eventual-consistency staleness window.
const DefaultStalenessMean = 700 * time.Millisecond

// DefaultConfig returns a deterministic manual-clock configuration suitable
// for tests: eventual consistency, September-2009 era, EC2 site.
func DefaultConfig() Config {
	return Config{Seed: 1, TimeScale: 0, Site: SiteEC2, Era: EraSept09, Consistency: Eventual}
}

// Env is one simulated deployment: a clock, a latency model, a cost meter
// and a random source, shared by the client and every service endpoint.
type Env struct {
	cfg   Config
	clock *Clock
	meter *Meter
	rnd   *Rand
	model Model

	gates [numGates]gate
	// laneGates holds the rate gates of sharded service endpoints (lane >
	// 0): each SimpleDB domain and each SQS queue is its own service-side
	// partition with its own request-rate ceiling, so a K-way sharded
	// deployment admits K requests per gate interval where a single
	// endpoint admits one. Lane 0 is the default endpoint and uses gates.
	laneMu    sync.Mutex
	laneGates map[laneKey]*gate

	netmu sync.Mutex // guards hostNet
	// hostNet is the virtual time at which the host NIC frees up; bulk
	// transfers space their admissions so aggregate bandwidth stays below
	// the host cap.
	hostNet time.Duration

	faultMu sync.Mutex
	faults  *FaultInjector // nil until InstallFaults; see faults.go

	// retry is the client's retry layer, nil until SetRetry: every endpoint
	// of the environment, born before or after, reads it on each request.
	retry atomic.Pointer[retryLayer]
}

// retryLayer is what sits between a client and its service requests
// (resilient.Client; an interface because resilient imports sim). It is
// consulted around a request's attempts, not handed them — see Endpoint.Do:
// Begin admits the request or fails it fast, and Next takes each attempt's
// outcome and says, having slept any backoff, whether to make another.
// state is the layer's own note on the request, carried for it by the caller;
// tenant is whom the request is made for ("" for none, see WithTenant).
type retryLayer interface {
	Begin(endpoint, tenant string) (state int, err error)
	Next(endpoint, tenant string, state int, err error) (next int, again bool, out error)
}

// NewEnv creates an environment from cfg, filling defaults.
func NewEnv(cfg Config) *Env {
	if cfg.StalenessMean == 0 {
		cfg.StalenessMean = DefaultStalenessMean
	}
	e := &Env{
		cfg:   cfg,
		clock: NewClock(cfg.TimeScale),
		meter: NewMeter(),
		rnd:   NewRand(cfg.Seed),
		model: ModelFor(cfg),
	}
	for i := range e.gates {
		e.gates[i].interval = e.model.gateInterval(gateID(i))
	}
	return e
}

// Config returns the environment's configuration.
func (e *Env) Config() Config { return e.cfg }

// Clock returns the environment's virtual clock.
func (e *Env) Clock() *Clock { return e.clock }

// Meter returns the cost meter.
func (e *Env) Meter() *Meter { return e.meter }

// Rand returns the deterministic random source.
func (e *Env) Rand() *Rand { return e.rnd }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.clock.Now() }

// InstallFaults installs (or returns the already-installed) fault injector
// and arms it with plan; a nil plan installs the injector with probabilistic
// injection disarmed, which is how tests arm forced faults only. Installing
// over an existing injector replaces its plan but keeps its random stream
// and forced faults.
func (e *Env) InstallFaults(plan FaultPlan) *FaultInjector {
	e.faultMu.Lock()
	defer e.faultMu.Unlock()
	if e.faults == nil {
		e.faults = &FaultInjector{
			clock:   e.clock,
			meter:   e.meter,
			rnd:     NewRand(e.cfg.Seed ^ faultSeedSalt),
			plan:    plan,
			forced:  make(map[forcedKey]*forcedFault),
			crashes: make(map[CrashPoint]int),
		}
	} else {
		e.faults.SetPlan(plan)
	}
	return e.faults
}

// Faults returns the installed fault injector, or nil.
func (e *Env) Faults() *FaultInjector {
	e.faultMu.Lock()
	defer e.faultMu.Unlock()
	return e.faults
}

// SetRetry installs l as the retry layer of every endpoint of the
// environment (nil removes it, and requests fail raw). Pass a nil interface,
// not a nil pointer in one.
func (e *Env) SetRetry(l retryLayer) {
	if l == nil {
		e.retry.Store(nil)
		return
	}
	e.retry.Store(&l)
}

// Retry returns the installed retry layer, or nil.
func (e *Env) Retry() retryLayer {
	if l := e.retry.Load(); l != nil {
		return *l
	}
	return nil
}

// FaultPoint consults the fault injector for one request of op kind op
// against endpoint; mutating marks state-changing ops (eligible for the
// ambiguous fail-applied outcome). With no injector installed it is a nil
// check. The services reach it through Endpoint.Fault; translog calls it for
// its one point that is no service request, the start of a checkpoint.
func (e *Env) FaultPoint(endpoint, op string, mutating bool) (err error, applied bool) {
	f := e.Faults()
	if f == nil {
		return nil, false
	}
	return f.Check(endpoint, op, mutating)
}

// Crashed reports whether the process reaching point dies here: true exactly
// once per FaultInjector.CrashAt(point, …), however many goroutines race to
// the point. With no injector installed it is a nil check.
func (e *Env) Crashed(point CrashPoint) bool {
	_, hit := e.CrashedAfter(point, math.MaxInt)
	return hit
}

// CrashedAfter is Crashed for a site that does total units of work and can
// die part-way: it fires, returning the armed count n, only when n < total —
// a process cannot die after finishing — and otherwise leaves the point
// armed for a larger piece of work.
func (e *Env) CrashedAfter(point CrashPoint, total int) (n int, hit bool) {
	f := e.Faults()
	if f == nil {
		return 0, false
	}
	return f.consumeCrash(point, total)
}

// Compute charges d of client compute time (application work between I/O).
func (e *Env) Compute(d time.Duration) {
	if d > 0 {
		e.clock.Sleep(d)
	}
}

// ClientOp charges the client-side cost of one file-system operation that
// moved nbytes of data. Under UML this is where the paper's measured UML
// penalty (per-op and per-MB) is applied.
func (e *Env) ClientOp(nbytes int) {
	if d := e.ClientOpCost(nbytes); d > 0 {
		e.clock.Sleep(d)
	}
}

// ClientOpCost returns the client-side cost of one fs operation without
// sleeping it; callers that process very many operations accumulate the
// cost and sleep it in coarse chunks so live-mode timer noise cannot pile
// up across tens of thousands of tiny sleeps.
func (e *Env) ClientOpCost(nbytes int) time.Duration {
	d := e.model.ClientPerOp
	if e.cfg.UML {
		d += umlPerOp + time.Duration(float64(nbytes)*umlPerByteNs)*time.Nanosecond
	}
	return d
}

// StalenessWindow samples the staleness window for one freshly written
// datum: the duration during which eventually consistent reads may still
// observe the previous state. Strict mode always returns zero.
func (e *Env) StalenessWindow() time.Duration {
	if e.cfg.Consistency == Strict {
		return 0
	}
	return e.rnd.Exp(e.cfg.StalenessMean)
}

// laneKey identifies one sharded endpoint's gate.
type laneKey struct {
	g    gateID
	lane int
}

// gateFor resolves the rate gate of (gate class, lane), creating lane gates
// on first use with the class's admission interval.
func (e *Env) gateFor(g gateID, lane int) *gate {
	if lane <= 0 {
		return &e.gates[g]
	}
	key := laneKey{g: g, lane: lane}
	e.laneMu.Lock()
	defer e.laneMu.Unlock()
	if e.laneGates == nil {
		e.laneGates = make(map[laneKey]*gate)
	}
	gt := e.laneGates[key]
	if gt == nil {
		gt = &gate{interval: e.gates[g].interval}
		e.laneGates[key] = gt
	}
	return gt
}

// gateName names a gate class for reporting.
func gateName(g gateID) string {
	switch g {
	case gateS3Read:
		return "s3-read"
	case gateS3Write:
		return "s3-write"
	case gateSDBRead:
		return "sdb-read"
	case gateSDBWrite:
		return "sdb-write"
	case gateSQS:
		return "sqs"
	}
	return "none"
}

// GateDepths reports the current queue depth of every rate gate with
// backlog: how many admission intervals of reservations stretch beyond now
// ((next-now)/interval). Keys are "<class>" for the default lane and
// "<class>-<lane>" for sharded endpoint lanes; idle gates are absent. A
// depth that keeps climbing means a lane is saturated and commits are
// waiting in virtual time at that gate.
func (e *Env) GateDepths() map[string]float64 {
	now := e.clock.Now()
	depths := make(map[string]float64)
	report := func(name string, g *gate) {
		g.mu.Lock()
		interval, next := g.interval, g.next
		g.mu.Unlock()
		if interval <= 0 || next <= now {
			return
		}
		depths[name] = float64(next-now) / float64(interval)
	}
	for i := gateID(1); i < numGates; i++ {
		report(gateName(i), &e.gates[i])
	}
	e.laneMu.Lock()
	lanes := maps.Clone(e.laneGates)
	e.laneMu.Unlock()
	for k, g := range lanes {
		report(fmt.Sprintf("%s-%d", gateName(k.g), k.lane), g)
	}
	return depths
}

// reserveNet spaces bulk transfers so aggregate host throughput stays under
// the host NIC cap, then waits until this transfer's admission time.
func (e *Env) reserveNet(nbytes int) {
	occupancy := time.Duration(float64(nbytes) / e.model.HostNetBps * float64(time.Second))
	e.netmu.Lock()
	now := e.clock.Now()
	start := e.hostNet
	start = max(start, now)
	e.hostNet = start + occupancy
	e.netmu.Unlock()
	e.clock.SleepUntil(start)
}

// charge records the request and its transfer against the cost meter.
func (e *Env) charge(spec *opSpec, nbytes int) {
	e.meter.CountRequest(spec.cost, 1)
	if spec.machineSec > 0 {
		e.meter.AddMachineSeconds(spec.machineSec)
	}
	switch spec.xfer {
	case xferIn:
		e.meter.AddTransferIn(int64(nbytes))
	case xferOut:
		e.meter.AddTransferOut(int64(nbytes))
	}
}

// bulkThreshold is the payload size above which a transfer contends for the
// host NIC; small control requests are not worth spacing.
const bulkThreshold = 256 << 10

// jitterFrac is the relative latency jitter (the paper stresses that AWS
// performance is highly variable; a few percent keeps runs realistic while
// preserving orderings).
const jitterFrac = 0.04

// gate is a virtual-time request-rate limiter. A gate with interval i admits
// at most one request per i of virtual time, modelling the per-host service
// throughput ceiling.
type gate struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Duration
}

// reserve blocks (in virtual time) until the gate admits the caller.
func (g *gate) reserve(c *Clock) {
	if g.interval <= 0 {
		return
	}
	g.mu.Lock()
	now := c.Now()
	at := g.next
	at = max(at, now)
	g.next = at + g.interval
	g.mu.Unlock()
	c.SleepUntil(at)
}
