package resilient

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"passcloud/internal/sim"
)

// ErrCircuitOpen wraps the error that is failed fast while an endpoint's
// circuit breaker is open.
var ErrCircuitOpen = errors.New("resilient: circuit open")

// ErrBudgetExhausted wraps the error returned when an endpoint's retry
// budget is spent and a transient failure cannot be retried.
var ErrBudgetExhausted = errors.New("resilient: retry budget exhausted")

// Policy tunes the client's retry, breaker and hedging behaviour. The zero
// value selects the defaults below, so Policy{} is a working configuration.
type Policy struct {
	// InitialBackoff is the cap of the first retry's full-jitter delay.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth of the per-attempt delay.
	MaxBackoff time.Duration
	// Multiplier grows the delay cap per attempt.
	Multiplier float64
	// MaxAttempts bounds the attempts of one Do call (first try included).
	MaxAttempts int
	// RetryBudget is the per-endpoint token bucket capacity: every retry
	// spends one token and every successful first attempt earns BudgetRefill
	// back, so a persistently failing endpoint stops consuming requests
	// instead of retry-storming the service.
	RetryBudget float64
	// BudgetRefill is the fraction of a token a successful attempt earns.
	BudgetRefill float64
	// BreakerThreshold is the run of consecutive transient failures (across
	// calls) that opens an endpoint's circuit breaker; while open, calls
	// fail fast without touching the service. Negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a probe attempt through (half-open).
	BreakerCooldown time.Duration
	// HedgeAfter is the straggler threshold of Hedged: if the primary
	// attempt has not returned after this much virtual time, an identical
	// hedge attempt is launched and the first result wins. On a live clock
	// both attempts genuinely race; under a manual clock (where every
	// sleeper advances the shared logical clock, so a concurrent watchdog
	// would corrupt timing) the race is emulated sequentially and the
	// winner picked by virtual completion time, so hedge decisions and
	// counters stay deterministic and meter-visible. Negative disables
	// hedging.
	HedgeAfter time.Duration
}

// Defaults (virtual time).
const (
	DefaultInitialBackoff   = 25 * time.Millisecond
	DefaultMaxBackoff       = 2 * time.Second
	DefaultMultiplier       = 2.0
	DefaultMaxAttempts      = 6
	DefaultRetryBudget      = 64.0
	DefaultBudgetRefill     = 0.1
	DefaultBreakerThreshold = 24
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultHedgeAfter       = 400 * time.Millisecond
)

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = DefaultInitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = DefaultRetryBudget
	}
	if p.BudgetRefill <= 0 {
		p.BudgetRefill = DefaultBudgetRefill
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = DefaultBreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = DefaultBreakerCooldown
	}
	if p.HedgeAfter == 0 {
		p.HedgeAfter = DefaultHedgeAfter
	}
	return p
}

// key names the retry state a request's attempts run against: its endpoint,
// and the tenant it is made for ("" for the fabric's own requests).
type key struct{ endpoint, tenant string }

// String names the key in errors.
func (k key) String() string {
	if k.tenant == "" {
		return k.endpoint
	}
	return k.endpoint + " for tenant " + k.tenant
}

// endpointState is one key's retry budget, breaker and counters.
type endpointState struct {
	budget    float64
	failRun   int           // consecutive transient failures (breaker input)
	openUntil time.Duration // breaker open until this virtual time; 0 = closed
	probing   bool          // a half-open probe call is in flight

	attempts      int64
	retries       int64
	hedges        int64
	breakerOpens  int64
	breakerFast   int64 // calls failed fast by an open breaker
	budgetDenials int64
}

// Client routes service calls through exponential backoff with full jitter
// (clocked on the simulated clock), a per-endpoint retry budget, a circuit
// breaker, and optional request hedging. One client is shared by every
// endpoint of a deployment; state is tracked per endpoint name, and per
// (endpoint, tenant) for requests made for a tenant (sim.WithTenant), so one
// tenant's failures spend only its own budget and open only its own breaker.
//
// Only errors recognised by sim.IsTransient are retried: semantic errors
// (missing keys, validation failures, forced test faults) surface to the
// caller on the first attempt exactly as they do without the client.
//
// Backoff delays draw from the client's own seeded random stream, never the
// environment's, so enabling resilience does not perturb the simulation's
// staleness and jitter sampling.
type Client struct {
	env *sim.Env
	pol Policy
	rnd *sim.Rand

	mu  sync.Mutex
	eps map[key]*endpointState
}

// backoffSeedSalt decorrelates the backoff stream from the environment's
// and the fault injector's (all derive from the config seed).
const backoffSeedSalt = 0xbac0ff

// New returns a client bound to env with pol (zero fields defaulted).
func New(env *sim.Env, pol Policy) *Client {
	return &Client{
		env: env,
		pol: pol.withDefaults(),
		rnd: sim.NewRand(env.Config().Seed ^ backoffSeedSalt),
	}
}

// Of returns the client installed as env's retry layer (sim.Env.SetRetry), or
// nil: how the scatter-gather read path finds the client to hedge with.
func Of(env *sim.Env) *Client {
	c, _ := env.Retry().(*Client)
	return c
}

// Env returns the environment the client clocks against.
func (c *Client) Env() *sim.Env { return c.env }

// Policy returns the effective (defaulted) policy.
func (c *Client) Policy() Policy { return c.pol }

// state returns k's state, creating it with a full budget.
func (c *Client) state(k key) *endpointState {
	if c.eps == nil {
		c.eps = make(map[key]*endpointState)
	}
	st := c.eps[k]
	if st == nil {
		st = &endpointState{budget: c.pol.RetryBudget}
		c.eps[k] = st
	}
	return st
}

// probeCall is the state of a half-open breaker's probe call.
const probeCall = -1

// Begin admits one call against endpoint, made for tenant ("" for none), and
// returns its state for Next — the number of the attempt the caller is about
// to make, or probeCall. While the breaker of (endpoint, tenant) is open the
// call fails fast, without a service request. After the cooldown exactly one
// caller is elected the half-open probe; concurrent callers keep failing fast
// until the probe resolves, so a thundering herd cannot re-storm a recovering
// endpoint.
//
// sim.Endpoint.Do is the one loop that drives Begin and Next: it retries
// transient failures with exponentially growing full-jitter backoff until
// the call succeeds, returns a non-retryable error, exhausts MaxAttempts, or
// runs out of retry budget. It makes the attempts itself, so the attempt it
// is handed is only ever called, never passed on, and stays off the heap.
func (c *Client) Begin(endpoint, tenant string) (state int, err error) {
	now := c.env.Now()
	k := key{endpoint, tenant}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(k)
	if st.openUntil > 0 {
		if now < st.openUntil {
			st.breakerFast++
			return 0, fmt.Errorf("%w: %s until t=%s", ErrCircuitOpen, k, st.openUntil)
		}
		if st.probing {
			st.breakerFast++
			return 0, fmt.Errorf("%w: %s (half-open probe in flight)", ErrCircuitOpen, k)
		}
		st.probing = true
		st.failRun = 0
		state = probeCall
	}
	st.attempts++
	return state, nil
}

// Next takes the outcome of the attempt a call in state just made. With again
// the backoff has been slept and the caller makes the attempt numbered next;
// otherwise the call is over and out is its result.
func (c *Client) Next(endpoint, tenant string, state int, err error) (next int, again bool, out error) {
	k := key{endpoint, tenant}
	c.mu.Lock()
	st := c.state(k)
	if err == nil || !sim.IsTransient(err) {
		// Success and semantic failures both close the failure run and
		// slowly refill the retry budget; a successful probe closes the
		// breaker.
		st.failRun = 0
		if state == probeCall {
			st.probing = false
			st.openUntil = 0
		}
		st.budget = min(st.budget+c.pol.BudgetRefill, c.pol.RetryBudget)
		c.mu.Unlock()
		return state, false, err
	}
	if state == probeCall {
		// A probe gets exactly one attempt: a transient failure re-opens the
		// breaker for another cooldown instead of retrying.
		st.probing = false
		st.openUntil = c.env.Now() + c.pol.BreakerCooldown
		st.breakerOpens++
		c.mu.Unlock()
		return state, false, fmt.Errorf("%w: %s: %w", ErrCircuitOpen, k, err)
	}
	st.failRun++
	if c.pol.BreakerThreshold > 0 && st.failRun >= c.pol.BreakerThreshold {
		st.failRun = 0
		st.openUntil = c.env.Now() + c.pol.BreakerCooldown
		st.breakerOpens++
		c.mu.Unlock()
		return state, false, fmt.Errorf("%w: %s: %w", ErrCircuitOpen, k, err)
	}
	if state == c.pol.MaxAttempts-1 {
		c.mu.Unlock()
		return state, false, err
	}
	if st.budget < 1 {
		st.budgetDenials++
		c.mu.Unlock()
		return state, false, fmt.Errorf("%w: %s: %w", ErrBudgetExhausted, k, err)
	}
	st.budget--
	st.retries++
	st.attempts++
	c.mu.Unlock()

	c.env.Clock().Sleep(c.backoff(state))
	return state + 1, true, nil
}

// backoff samples the full-jitter delay of retry attempt (0-based first
// attempt): uniform in [0, min(MaxBackoff, InitialBackoff·Multiplier^n)],
// the cenkalti/backoff-style decorrelated policy AWS SDKs converged on.
func (c *Client) backoff(attempt int) time.Duration {
	lim := float64(c.pol.InitialBackoff)
	for i := 0; i < attempt && lim < float64(c.pol.MaxBackoff); i++ {
		lim *= c.pol.Multiplier
	}
	if lim > float64(c.pol.MaxBackoff) {
		lim = float64(c.pol.MaxBackoff)
	}
	return time.Duration(c.rnd.Float64() * lim)
}

// Hedged runs fn and launches one identical hedge attempt if the primary has
// not returned within HedgeAfter of virtual time; the first result (by
// virtual completion time) wins. It exists for the scatter-gather read path:
// per-shard drains are idempotent reads, so a straggling or fault-backed-off
// shard is cheaply overtaken by a fresh attempt instead of gating the whole
// fan-out on the slowest shard's retries.
//
// On a live clock both attempts genuinely race. Under a manual clock the two
// attempts cannot overlap (concurrent sleepers would add their delays to the
// shared logical clock), so the race is emulated sequentially: the primary
// runs to completion, and only if its virtual duration exceeded HedgeAfter is
// the hedge run and the winner picked by virtual completion time. The manual
// clock over-advances relative to a true race — manual mode asserts behaviour
// and counters, not latency — but hedge decisions and counters are
// deterministic. With hedging disabled (or a nil client) Hedged is exactly
// fn().
func Hedged[T any](c *Client, endpoint string, fn func() (T, error)) (T, error) {
	if c == nil || c.pol.HedgeAfter <= 0 {
		return fn()
	}
	if !c.env.Clock().Live() {
		return hedgedManual(c, endpoint, fn)
	}
	type result struct {
		v   T
		err error
	}
	results := make(chan result, 2) // both attempts can always complete
	launch := func() {
		v, err := fn()
		results <- result{v, err}
	}
	go launch()
	done := make(chan struct{})
	defer close(done)
	go func() {
		c.env.Clock().Sleep(c.pol.HedgeAfter)
		select {
		case <-done:
			return
		default:
		}
		c.mu.Lock()
		c.state(key{endpoint: endpoint}).hedges++
		c.mu.Unlock()
		go launch()
	}()
	r := <-results
	return r.v, r.err
}

// hedgedManual emulates the hedge race deterministically on a manual clock:
// run the primary, and if it took longer than HedgeAfter of virtual time,
// run the hedge too and return whichever finished first in virtual time
// (the hedge's completion time includes the HedgeAfter launch delay).
func hedgedManual[T any](c *Client, endpoint string, fn func() (T, error)) (T, error) {
	t0 := c.env.Now()
	v, err := fn()
	primDur := c.env.Now() - t0
	if primDur <= c.pol.HedgeAfter {
		return v, err
	}
	c.mu.Lock()
	c.state(key{endpoint: endpoint}).hedges++
	c.mu.Unlock()
	t1 := c.env.Now()
	hv, herr := fn()
	hedgeDur := c.env.Now() - t1
	if c.pol.HedgeAfter+hedgeDur < primDur {
		return hv, herr
	}
	return v, err
}

// EndpointStats is the per-endpoint counter snapshot.
type EndpointStats struct {
	Attempts      int64 // service attempts issued (first tries + retries)
	Retries       int64 // backed-off re-attempts
	Hedges        int64 // hedge attempts launched
	BreakerOpens  int64 // times the circuit opened
	BreakerFast   int64 // calls failed fast while open
	BudgetDenials int64 // retries denied by an exhausted budget
}

// add accumulates o into s.
func (s *EndpointStats) add(o EndpointStats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.BreakerOpens += o.BreakerOpens
	s.BreakerFast += o.BreakerFast
	s.BudgetDenials += o.BudgetDenials
}

// Stats is a snapshot of the client's counters.
type Stats struct {
	// Endpoints counts every request, by endpoint.
	Endpoints map[string]EndpointStats
	// Tenants counts the requests made for a tenant, by tenant: a subset of
	// what Endpoints counts.
	Tenants map[string]EndpointStats
}

// Totals sums the per-endpoint counters.
func (s Stats) Totals() EndpointStats {
	var t EndpointStats
	for _, e := range s.Endpoints {
		t.add(e)
	}
	return t
}

// String renders the totals plus any endpoint or tenant that saw retries or
// hedges.
func (s Stats) String() string {
	t := s.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "attempts=%d retries=%d hedges=%d breaker=%d", t.Attempts, t.Retries, t.Hedges, t.BreakerOpens)
	writeActive(&b, "", s.Endpoints)
	writeActive(&b, "tenant/", s.Tenants)
	return b.String()
}

// writeActive appends " <prefix><name>=<retries>/<hedges>" for every name in
// m that saw retries or hedges, in name order.
func writeActive(b *strings.Builder, prefix string, m map[string]EndpointStats) {
	names := make([]string, 0, len(m))
	for n, e := range m {
		if e.Retries > 0 || e.Hedges > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, " %s%s=%d/%d", prefix, n, m[n].Retries, m[n].Hedges)
	}
}

// Stats returns a copy of the counters. A nil client has none.
func (c *Client) Stats() Stats {
	out := Stats{Endpoints: make(map[string]EndpointStats), Tenants: make(map[string]EndpointStats)}
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, st := range c.eps {
		e := EndpointStats{
			Attempts:      st.attempts,
			Retries:       st.retries,
			Hedges:        st.hedges,
			BreakerOpens:  st.breakerOpens,
			BreakerFast:   st.breakerFast,
			BudgetDenials: st.budgetDenials,
		}
		add := func(m map[string]EndpointStats, name string) {
			sum := m[name]
			sum.add(e)
			m[name] = sum
		}
		add(out.Endpoints, k.endpoint)
		if k.tenant != "" {
			add(out.Tenants, k.tenant)
		}
	}
	return out
}
