package sim

import "context"

// Endpoint is one service endpoint — a bucket, a SimpleDB domain, an SQS
// queue — as the environment sees it: the name faults, retry budgets and
// per-endpoint meters key on, and the rate-gate lane its requests queue at.
// It owns the request envelope every operation of every service goes through:
//
//	ep.Do(func() error {            // the client's retry layer, if any
//		ferr, applied := ep.Fault(op) // may reject, or fail after applying
//		if ferr != nil && !applied {
//			return ferr
//		}
//		ep.Exec(op, nbytes, units)    // gate, latency, bill, count
//		… change or read the service's state …
//		return ferr
//	})
//
// Requests on distinct lanes queue at distinct rate gates, modelling that a
// domain or a queue is its own service-side partition with its own
// request-rate ceiling (the paper's ~7 BatchPut/s and ~210 request/s gates
// are per domain/queue, which is why sharding across K of them scales the
// write path). Lane 0 is the environment's default gate of each class.
type Endpoint struct {
	env    *Env
	name   string
	lane   int
	tenant string // whom the request is made for (For); "" for the fabric itself
}

// Endpoint returns the handle of the service endpoint name on gate lane lane.
func (e *Env) Endpoint(name string, lane int) Endpoint {
	return Endpoint{env: e, name: name, lane: lane}
}

// tenantKey is the context key WithTenant stores the tenant under.
type tenantKey struct{}

// WithTenant returns a copy of ctx carrying tenant: the requests made with it
// are made for that tenant, and the retry layer keys their budget and breaker
// by (endpoint, tenant) instead of by endpoint alone.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantOf returns the tenant ctx carries, or "".
func TenantOf(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// For returns the endpoint's handle for a request made with ctx: its attempts
// run against the retry state of the tenant ctx carries, if any.
func (ep Endpoint) For(ctx context.Context) Endpoint {
	ep.tenant = TenantOf(ctx)
	return ep
}

// Do runs one request's attempts as the environment's retry layer directs, or
// just once when none is installed. It is the only place a request is
// retried. attempt is only ever called here, never passed to the layer, so
// the caller's closure does not escape to the heap.
func (ep Endpoint) Do(attempt func() error) error {
	l := ep.env.retry.Load()
	if l == nil {
		return attempt()
	}
	state, err := (*l).Begin(ep.name, ep.tenant)
	for again := err == nil; again; {
		state, again, err = (*l).Next(ep.name, ep.tenant, state, attempt())
	}
	return err
}

// Call is Do for an attempt that returns a value: the value of the attempt
// Do ends on.
func Call[T any](ep Endpoint, attempt func() (T, error)) (T, error) {
	var v T
	err := ep.Do(func() error {
		var err error
		v, err = attempt()
		return err
	})
	return v, err
}

// Fault consults the fault injector for one attempt of op. A nil error lets
// the attempt proceed. With applied the service performs the operation and
// the caller still returns the error (only mutating ops draw this outcome);
// otherwise the attempt is rejected, and Fault has already charged the failed
// round trip exactly as a real 503 costs a request.
func (ep Endpoint) Fault(op OpKind) (err error, applied bool) {
	spec := &opSpecs[op]
	err, applied = ep.env.FaultPoint(ep.name, spec.name, spec.mutating)
	if err != nil && !applied {
		ep.Exec(op, 0, 0)
	}
	return err, applied
}

// Exec performs one request of kind op carrying a payload of nbytes (request
// body for writes, response body for reads) and units of per-request work
// (batch items or entries, items a SELECT examined). It waits for admission
// at the endpoint's rate gate — what makes S3 saturate around 150 connections
// and SimpleDB around 40 in Table 2 — and, for a bulk transfer, at the host
// NIC; sleeps the jittered latency, then the unjittered per-unit increment;
// bills the request; and counts it by kind and by endpoint.
func (ep Endpoint) Exec(op OpKind, nbytes, units int) {
	e, spec := ep.env, &opSpecs[op]
	if spec.gate != gateNone {
		e.gateFor(spec.gate, ep.lane).reserve(e.clock)
	}
	if spec.xfer != xferNone && nbytes > bulkThreshold {
		e.reserveNet(nbytes)
	}

	d := e.model.latency(op, nbytes)
	d += e.rnd.Jitter(d, jitterFrac)
	e.clock.Sleep(d)
	// Its own sleep: on the live clock every sleep overshoots a little, and
	// Figure 3's P1 < P2 margin (TestMicroOverheadOrdering) was calibrated
	// with a batch paying that twice.
	e.clock.Sleep(e.model.unitLatency(op, units))

	e.charge(spec, nbytes)
	e.meter.CountOp(spec.name, int64(nbytes))
	e.meter.CountEndpointOp(ep.name)
}
