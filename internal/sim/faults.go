package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"
)

// This file is the fault model of the simulated substrate. Real
// S3/SimpleDB/SQS throttle, drop and 5xx requests routinely — the paper's
// protocols are explicitly designed so that retried, redelivered and
// half-applied requests converge — so the environment can inject typed,
// retryable faults at every service endpoint, deterministically.
//
// A FaultPlan assigns per-endpoint fault probabilities (plus optional timed
// windows); an installed FaultInjector additionally supports forced faults —
// persistent ("every SELECT on prov-2 fails until cleared") and one-shot
// ("the next BatchPut fails once") — and one-shot named crash points, where
// a process dies between two requests (CrashAt; internal/fabric/doc.go lists
// every point). Fault decisions draw from the injector's own seeded random
// stream, not the environment's, and crash points from none, so arming
// either never perturbs staleness sampling, latency jitter or uuid
// allocation: a faulted run stays content-equivalent to its fault-free twin.

// TransientError is a retryable service error: the simulated analogue of an
// HTTP 503 (SlowDown / ServiceUnavailable). Callers are expected to back off
// and retry; the resilient client layer recognises it via IsTransient.
type TransientError struct {
	Endpoint string // service endpoint name ("s3", "prov-2", "wal-0", ...)
	Op       string // metered op kind ("sdb.Select", "s3.PUT", ...)
	Code     string // service error code ("SlowDown", "ServiceUnavailable")
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("sim: %s %s: %s (transient)", e.Endpoint, e.Op, e.Code)
}

// IsTransient reports whether err is (or wraps) a retryable service fault.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Conventional service error codes, as the 2009/2010 APIs spelled them.
const (
	CodeSlowDown           = "SlowDown"           // S3's throttle response
	CodeServiceUnavailable = "ServiceUnavailable" // SimpleDB/SQS 503
)

// FaultSpec configures probabilistic fault injection for one plan key.
type FaultSpec struct {
	// Prob is the per-request fault probability.
	Prob float64
	// Code is the error code injected faults carry; empty picks the
	// service's conventional code (SlowDown for S3, ServiceUnavailable
	// otherwise).
	Code string
	// ApplyProb is the fraction of injected faults on mutating ops that are
	// ambiguous: the service performs the mutation but the client still sees
	// the error (the state a retry must tolerate). Zero injects clean
	// rejections only.
	ApplyProb float64
	// Ops restricts the spec to the listed op kinds (exact match against the
	// metered kind, e.g. "sdb.Select"). Empty matches every op.
	Ops []string
	// From/Until bound the spec to a virtual-time window. Until zero means
	// no upper bound; the zero pair means always active.
	From, Until time.Duration
}

// matches reports whether the spec applies to op at virtual time now.
func (s FaultSpec) matches(op string, now time.Duration) bool {
	if s.Prob <= 0 {
		return false
	}
	if now < s.From || (s.Until > 0 && now >= s.Until) {
		return false
	}
	if len(s.Ops) == 0 {
		return true
	}
	for _, o := range s.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// FaultPlan maps plan keys to fault specs. A request against endpoint E with
// op kind "svc.Op" resolves, in order: the exact endpoint name E, the
// service class "svc" (the op kind's prefix — "s3", "sdb", "sqs"), and the
// wildcard "*". The first present key wins, even if its spec does not match
// the op, so an endpoint entry can also shield an endpoint from a broader
// class entry.
type FaultPlan map[string]FaultSpec

// UniformPlan is the convenience plan the chaos harness uses: every request
// against every endpoint faults with probability p, and applyProb of the
// faults on mutating ops are ambiguous (applied but reported failed).
func UniformPlan(p, applyProb float64) FaultPlan {
	return FaultPlan{"*": {Prob: p, ApplyProb: applyProb}}
}

// CrashPoint names a boundary in a protocol where the process reaching it can
// be made to die ("p3.daemon.after-db"). Packages declare their points as
// constants next to the code that checks them with Env.Crashed.
type CrashPoint string

// ErrCrashed is what a process killed at a crash point returns, wrapped with
// the point's name: the one sentinel for every simulated process death.
var ErrCrashed = errors.New("sim: simulated process crash")

// forcedKey identifies one forced-fault slot.
type forcedKey struct {
	endpoint string
	op       string // "" forces every op on the endpoint
}

// forcedFault is one armed forced fault.
type forcedFault struct {
	err  error
	once bool
}

// FaultInjector injects faults into an environment's service requests. It is
// installed with Env.InstallFaults and consulted by every simulated service
// call; when no injector is installed the fault path costs one nil check.
type FaultInjector struct {
	clock *Clock
	meter *Meter
	rnd   *Rand // private stream: fault draws never perturb the env's RNG

	mu      sync.Mutex
	plan    FaultPlan
	forced  map[forcedKey]*forcedFault
	crashes map[CrashPoint]int // armed crash points and their counts
}

// faultSeedSalt decorrelates the injector's stream from the environment's
// (both derive from Config.Seed).
const faultSeedSalt = 0x5fa17 // "fault"

func newFaultInjector(cfg Config, clock *Clock, meter *Meter, plan FaultPlan) *FaultInjector {
	return &FaultInjector{
		clock:   clock,
		meter:   meter,
		rnd:     NewRand(cfg.Seed ^ faultSeedSalt),
		plan:    plan,
		forced:  make(map[forcedKey]*forcedFault),
		crashes: make(map[CrashPoint]int),
	}
}

// SetPlan replaces the probabilistic fault plan (nil disarms it; forced
// faults are unaffected).
func (f *FaultInjector) SetPlan(plan FaultPlan) {
	f.mu.Lock()
	f.plan = plan
	f.mu.Unlock()
}

// FailOp makes every subsequent request of op kind op (e.g. "sdb.Select")
// against endpoint fail with err until cleared with ClearOp. An empty op
// fails every op on the endpoint. This is the persistent forced fault tests
// use to prove a failure propagates (the resilient layer retries only
// transient errors, so an arbitrary forced error surfaces immediately).
func (f *FaultInjector) FailOp(endpoint, op string, err error) {
	f.setForced(endpoint, op, err, false)
}

// FailNextOp arms a one-shot fault: exactly the next matching request fails
// with err, after which the slot clears itself.
func (f *FaultInjector) FailNextOp(endpoint, op string, err error) {
	f.setForced(endpoint, op, err, true)
}

// ClearOp disarms a forced fault set by FailOp/FailNextOp.
func (f *FaultInjector) ClearOp(endpoint, op string) {
	f.mu.Lock()
	delete(f.forced, forcedKey{endpoint: endpoint, op: op})
	f.mu.Unlock()
}

func (f *FaultInjector) setForced(endpoint, op string, err error, once bool) {
	key := forcedKey{endpoint: endpoint, op: op}
	f.mu.Lock()
	if err == nil {
		delete(f.forced, key)
	} else {
		f.forced[key] = &forcedFault{err: err, once: once}
	}
	f.mu.Unlock()
}

// CrashAt arms point: the next process in the environment to reach it dies
// there, exactly once, leaving the durable state as a killed process would.
// n is the work a counted site completes first (P3's client: packets sent;
// its cleanup: receipts acknowledged), 0 elsewhere. Arming is per
// environment: with two clients on one, arm just before driving the one meant.
func (f *FaultInjector) CrashAt(point CrashPoint, n int) {
	f.mu.Lock()
	f.crashes[point] = n
	f.mu.Unlock()
}

// ArmedCrashes lists, sorted, the crash points armed and not yet reached. A
// crash matrix asserts it empty at scenario end, so a point whose site a
// refactor removed fails its matrix instead of passing vacuously.
func (f *FaultInjector) ArmedCrashes() []CrashPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Sorted(maps.Keys(f.crashes))
}

// consumeCrash consumes point if it is armed with a count below total.
func (f *FaultInjector) consumeCrash(point CrashPoint, total int) (n int, hit bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, hit = f.crashes[point]
	if !hit || n >= total {
		return 0, false
	}
	delete(f.crashes, point)
	return n, true
}

// serviceClass extracts the service prefix of a metered op kind
// ("sdb.Select" → "sdb").
func serviceClass(op string) string {
	for i := 0; i < len(op); i++ {
		if op[i] == '.' {
			return op[:i]
		}
	}
	return op
}

// defaultCode picks the conventional error code for a service class.
func defaultCode(class string) string {
	if class == "s3" {
		return CodeSlowDown
	}
	return CodeServiceUnavailable
}

// Check decides the fate of one request of op kind op against endpoint.
// mutating marks ops that change service state and therefore may draw the
// ambiguous fail-applied outcome. It returns a nil error for the common
// no-fault path; otherwise applied reports whether the service performed the
// mutation despite the error (the caller must apply the mutation and still
// return the error). Every injected fault is counted by the meter.
func (f *FaultInjector) Check(endpoint, op string, mutating bool) (err error, applied bool) {
	f.mu.Lock()
	// Forced faults first: exact (endpoint, op), then (endpoint, any-op).
	for _, key := range [2]forcedKey{{endpoint, op}, {endpoint, ""}} {
		if ff := f.forced[key]; ff != nil {
			if ff.once {
				delete(f.forced, key)
			}
			err = ff.err
			f.mu.Unlock()
			f.meter.CountFault(endpoint)
			return err, false
		}
	}
	spec, ok := f.plan[endpoint]
	if !ok {
		spec, ok = f.plan[serviceClass(op)]
	}
	if !ok {
		spec, ok = f.plan["*"]
	}
	if !ok || !spec.matches(op, f.clock.Now()) || !f.rnd.Bool(spec.Prob) {
		f.mu.Unlock()
		return nil, false
	}
	if mutating && spec.ApplyProb > 0 {
		applied = f.rnd.Bool(spec.ApplyProb)
	}
	code := spec.Code
	f.mu.Unlock()
	if code == "" {
		code = defaultCode(serviceClass(op))
	}
	f.meter.CountFault(endpoint)
	return &TransientError{Endpoint: endpoint, Op: op, Code: code}, applied
}
