package resilient

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/sim"
)

func transientErr() error {
	return &sim.TransientError{Endpoint: "ep", Op: "s3.PUT", Code: sim.CodeSlowDown}
}

// manualClient returns a client installed as the retry layer of a fresh
// manual-clock environment.
func manualClient(pol Policy) *Client {
	env := sim.NewEnv(sim.DefaultConfig())
	c := New(env, pol)
	env.SetRetry(c)
	return c
}

// do makes op one request to endpoint through the envelope c is installed on.
func do(c *Client, endpoint string, op func() error) error {
	return c.Env().Endpoint(endpoint, 0).Do(op)
}

// TestRetryUntilSuccess pins the happy chaos path: transient failures are
// retried with backoff (virtual time advances) until the op succeeds.
func TestRetryUntilSuccess(t *testing.T) {
	c := manualClient(Policy{})
	start := c.Env().Now()
	calls := 0
	err := do(c, "ep", func() error {
		calls++
		if calls < 3 {
			return transientErr()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want success after retries", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
	if c.Env().Now() == start {
		t.Fatal("no backoff was slept between attempts")
	}
	st := c.Stats().Endpoints["ep"]
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries", st)
	}
}

// TestNonTransientPassthrough pins that semantic errors surface on the first
// attempt, unretried, exactly as they would without the client.
func TestNonTransientPassthrough(t *testing.T) {
	c := manualClient(Policy{})
	boom := errors.New("not found")
	calls := 0
	err := do(c, "ep", func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want boom after 1", err, calls)
	}
}

// TestMaxAttempts pins that a persistently failing op gives up after
// MaxAttempts and returns the transient error itself.
func TestMaxAttempts(t *testing.T) {
	c := manualClient(Policy{MaxAttempts: 4, BreakerThreshold: -1})
	calls := 0
	err := do(c, "ep", func() error { calls++; return transientErr() })
	if !sim.IsTransient(err) {
		t.Fatalf("Do = %v, want the transient error", err)
	}
	if calls != 4 {
		t.Fatalf("op ran %d times, want 4", calls)
	}
}

// TestRetryBudget pins the token bucket: once the per-endpoint budget is
// spent, further transient failures are not retried.
func TestRetryBudget(t *testing.T) {
	c := manualClient(Policy{RetryBudget: 2, MaxAttempts: 10, BreakerThreshold: -1})
	calls := 0
	err := do(c, "ep", func() error { calls++; return transientErr() })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Do = %v, want ErrBudgetExhausted", err)
	}
	if calls != 3 { // first try + the two budgeted retries
		t.Fatalf("op ran %d times, want 3", calls)
	}
	if st := c.Stats().Endpoints["ep"]; st.BudgetDenials != 1 {
		t.Fatalf("stats = %+v, want 1 budget denial", st)
	}

	// Successes refill the budget fractionally.
	for i := 0; i < 20; i++ {
		if err := do(c, "ep", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	calls = 0
	err = do(c, "ep", func() error {
		calls++
		if calls < 2 {
			return transientErr()
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("refilled budget did not allow a retry: err=%v calls=%d", err, calls)
	}
}

// TestCircuitBreaker pins the breaker lifecycle: a run of consecutive
// transient failures opens it, open calls fail fast without touching the
// service, and after the cooldown a probe call goes through.
func TestCircuitBreaker(t *testing.T) {
	c := manualClient(Policy{MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: time.Second})
	fail := func() error { return transientErr() }

	for i := 0; i < 2; i++ {
		if err := do(c, "ep", fail); !sim.IsTransient(err) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := do(c, "ep", fail); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("threshold call = %v, want ErrCircuitOpen", err)
	}

	// While open: fail fast, service untouched.
	touched := false
	if err := do(c, "ep", func() error { touched = true; return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker call = %v, want fast ErrCircuitOpen", err)
	}
	if touched {
		t.Fatal("open breaker let a call through")
	}
	st := c.Stats().Endpoints["ep"]
	if st.BreakerOpens != 1 || st.BreakerFast != 1 {
		t.Fatalf("stats = %+v, want 1 open / 1 fast-fail", st)
	}

	// After the cooldown the next call probes the endpoint.
	c.Env().Clock().Advance(2 * time.Second)
	if err := do(c, "ep", func() error { touched = true; return nil }); err != nil || !touched {
		t.Fatalf("half-open probe: err=%v touched=%v", err, touched)
	}
	// Other endpoints were never affected.
	if err := do(c, "other", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestTenantKeyedState pins the tenant dimension of the one retry layer: a
// request made for a tenant runs against its (endpoint, tenant) state, so a
// tenant whose requests keep failing opens only its own breaker — the same
// endpoint stays closed for the fabric's own requests and for other tenants
// — and Stats counts it under its endpoint and under its tenant.
func TestTenantKeyedState(t *testing.T) {
	c := manualClient(Policy{MaxAttempts: 1, BreakerThreshold: 2})
	ep := c.Env().Endpoint("ep", 0)
	forTenant := func(id string) sim.Endpoint { return ep.For(sim.WithTenant(context.Background(), id)) }
	a := forTenant("a")
	for i := 0; i < 2; i++ {
		a.Do(func() error { return transientErr() })
	}
	if err := a.Do(func() error { return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("tenant a after its failures = %v, want its breaker open", err)
	}
	if err := ep.Do(func() error { return nil }); err != nil {
		t.Fatalf("fabric request at a's endpoint = %v, want its own closed breaker", err)
	}
	if err := forTenant("b").Do(func() error { return nil }); err != nil {
		t.Fatalf("tenant b at a's endpoint = %v, want its own closed breaker", err)
	}

	st := c.Stats()
	if sa := st.Tenants["a"]; sa.Attempts != 2 || sa.BreakerOpens != 1 || sa.BreakerFast != 1 {
		t.Fatalf("tenant a stats = %+v, want 2 attempts / 1 open / 1 fast-fail", sa)
	}
	if sb := st.Tenants["b"]; sb.Attempts != 1 || sb.BreakerOpens != 0 {
		t.Fatalf("tenant b stats = %+v, want 1 attempt, breaker closed", sb)
	}
	if se := st.Endpoints["ep"]; se.Attempts != 4 || se.BreakerOpens != 1 {
		t.Fatalf("endpoint stats = %+v, want all 4 attempts and a's 1 open", se)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("tenants = %v, want a and b only", st.Tenants)
	}
}

// TestHedgedManualPassthrough pins that under a manual clock a prompt
// primary (within HedgeAfter of virtual time) runs exactly once, and that a
// nil client is a pure passthrough.
func TestHedgedManualPassthrough(t *testing.T) {
	c := manualClient(Policy{})
	calls := 0
	v, err := Hedged(c, "ep", func() (int, error) { calls++; return 7, nil })
	if v != 7 || err != nil || calls != 1 {
		t.Fatalf("manual-clock Hedged: v=%d err=%v calls=%d", v, err, calls)
	}
	v, err = Hedged[int](nil, "ep", func() (int, error) { calls++; return 9, nil })
	if v != 9 || err != nil || calls != 2 {
		t.Fatalf("nil-client Hedged: v=%d err=%v calls=%d", v, err, calls)
	}
}

// TestHedgedManualStraggler pins the deterministic manual-clock hedge
// emulation: a primary that stalls past HedgeAfter triggers a hedge attempt,
// and the hedge wins when its virtual completion time (launch delay
// included) beats the primary's.
func TestHedgedManualStraggler(t *testing.T) {
	c := manualClient(Policy{HedgeAfter: 50 * time.Millisecond})
	calls := 0
	v, err := Hedged(c, "ep", func() (string, error) {
		calls++
		if calls == 1 {
			c.Env().Clock().Sleep(5 * time.Second) // straggling primary
			return "slow", nil
		}
		c.Env().Clock().Sleep(10 * time.Millisecond)
		return "fast", nil
	})
	if err != nil || v != "fast" {
		t.Fatalf("Hedged = %q, %v; want the hedge's result", v, err)
	}
	if calls != 2 {
		t.Fatalf("op ran %d times, want primary + hedge", calls)
	}
	if st := c.Stats().Endpoints["ep"]; st.Hedges != 1 {
		t.Fatalf("stats = %+v, want 1 hedge", st)
	}

	// A hedge slower than the remaining primary lead does not win: primary
	// takes 100ms, hedge launches at 50ms and takes 80ms (finishing at a
	// virtual 130ms), so the primary's result stands.
	calls = 0
	v, err = Hedged(c, "ep", func() (string, error) {
		calls++
		if calls == 1 {
			c.Env().Clock().Sleep(100 * time.Millisecond)
			return "primary", nil
		}
		c.Env().Clock().Sleep(80 * time.Millisecond)
		return "hedge", nil
	})
	if err != nil || v != "primary" || calls != 2 {
		t.Fatalf("Hedged = %q, %v after %d calls; want the primary's result", v, err, calls)
	}
}

// TestCircuitBreakerHalfOpenConcurrentProbes pins, under the race detector,
// that half-open elects exactly one probe: while the probe call is in
// flight, every concurrent caller fails fast without touching the service,
// and the probe's success closes the breaker for everyone.
func TestCircuitBreakerHalfOpenConcurrentProbes(t *testing.T) {
	c := manualClient(Policy{MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: time.Second})
	for i := 0; i < 2; i++ {
		do(c, "ep", func() error { return transientErr() })
	}
	if err := do(c, "ep", func() error { return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not open: %v", err)
	}
	c.Env().Clock().Advance(2 * time.Second)

	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	probeDone := make(chan error, 1)
	go func() {
		probeDone <- do(c, "ep", func() error {
			if calls.Add(1) == 1 {
				close(entered)
			}
			<-release
			return nil
		})
	}()
	<-entered

	// With the probe parked inside the service call, a herd of callers must
	// all fail fast on ErrCircuitOpen without running their ops.
	const herd = 10
	herdErrs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		go func() {
			herdErrs <- do(c, "ep", func() error {
				calls.Add(1)
				return nil
			})
		}()
	}
	for i := 0; i < herd; i++ {
		if err := <-herdErrs; !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("herd call = %v, want fast ErrCircuitOpen", err)
		}
	}

	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe = %v, want success", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("service saw %d calls during half-open, want only the probe", got)
	}
	// The successful probe closed the breaker.
	if err := do(c, "ep", func() error { return nil }); err != nil {
		t.Fatalf("post-probe call = %v, want closed breaker", err)
	}
	st := c.Stats().Endpoints["ep"]
	if st.BreakerFast < herd {
		t.Fatalf("stats = %+v, want >=%d fast-fails", st, herd)
	}
}

// TestCircuitBreakerFailedProbeReopens pins that a probe's transient failure
// re-opens the breaker for another cooldown instead of retrying.
func TestCircuitBreakerFailedProbeReopens(t *testing.T) {
	c := manualClient(Policy{MaxAttempts: 3, BreakerThreshold: 2, BreakerCooldown: time.Second})
	for i := 0; i < 2; i++ {
		do(c, "ep", func() error { return transientErr() })
	}
	c.Env().Clock().Advance(2 * time.Second)

	// The probe fails once: no internal retries, breaker re-opens.
	calls := 0
	err := do(c, "ep", func() error { calls++; return transientErr() })
	if !errors.Is(err, ErrCircuitOpen) || calls != 1 {
		t.Fatalf("failed probe: err=%v calls=%d, want ErrCircuitOpen after 1 call", err, calls)
	}
	if err := do(c, "ep", func() error { calls++; return nil }); !errors.Is(err, ErrCircuitOpen) || calls != 1 {
		t.Fatalf("breaker did not re-open after failed probe: err=%v calls=%d", err, calls)
	}
	c.Env().Clock().Advance(2 * time.Second)
	if err := do(c, "ep", func() error { return nil }); err != nil {
		t.Fatalf("second probe = %v, want success", err)
	}
}

// TestHedgedOvertakesStraggler pins hedging on a live clock: when the
// primary attempt stalls past HedgeAfter, the hedge attempt's result wins.
func TestHedgedOvertakesStraggler(t *testing.T) {
	env := sim.NewEnv(sim.Config{Seed: 1, TimeScale: 1000, Site: sim.SiteEC2})
	c := New(env, Policy{HedgeAfter: 50 * time.Millisecond})
	var n atomic.Int32
	v, err := Hedged(c, "ep", func() (string, error) {
		if n.Add(1) == 1 {
			env.Clock().Sleep(5 * time.Second) // straggling primary
			return "slow", nil
		}
		return "fast", nil
	})
	if err != nil || v != "fast" {
		t.Fatalf("Hedged = %q, %v; want the hedge's result", v, err)
	}
	if st := c.Stats().Endpoints["ep"]; st.Hedges != 1 {
		t.Fatalf("stats = %+v, want 1 hedge", st)
	}
}

// TestPolicyDefaults pins that the zero policy is fully defaulted.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.InitialBackoff != DefaultInitialBackoff || p.MaxBackoff != DefaultMaxBackoff ||
		p.MaxAttempts != DefaultMaxAttempts || p.RetryBudget != DefaultRetryBudget ||
		p.BreakerThreshold != DefaultBreakerThreshold || p.HedgeAfter != DefaultHedgeAfter {
		t.Fatalf("withDefaults = %+v", p)
	}
	// Negative knobs disable rather than default.
	p = Policy{BreakerThreshold: -1, HedgeAfter: -1}.withDefaults()
	if p.BreakerThreshold != -1 || p.HedgeAfter != -1 {
		t.Fatalf("negative knobs were overwritten: %+v", p)
	}
}

// TestBackoffBounds pins the full-jitter envelope: every sampled delay lies
// in [0, min(MaxBackoff, Initial·Mult^n)] and the cap saturates at
// MaxBackoff.
func TestBackoffBounds(t *testing.T) {
	c := manualClient(Policy{InitialBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Multiplier: 2})
	for attempt := 0; attempt < 8; attempt++ {
		lim := 10 * time.Millisecond << attempt
		if lim > 80*time.Millisecond {
			lim = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := c.backoff(attempt); d < 0 || d > lim {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, lim)
			}
		}
	}
}
