// Package cloud_test holds the one test that spans the three simulated
// services: every request kind goes through the same sim.Endpoint envelope.
package cloud_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// services is one bucket, one domain and one queue on a strict environment,
// each holding one thing: object "obj", item "item", and one message that was
// received once (receipt is its handle) and is visible again.
type services struct {
	env     *sim.Env
	faults  *sim.FaultInjector
	st      *store.Store
	dom     *sdb.Domain
	q       *sqs.Queue
	receipt string
}

func newServices(t *testing.T) *services {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	s := &services{env: env, faults: env.InstallFaults(nil), st: store.New(env), dom: sdb.New(env, "prov"), q: sqs.New(env, "wal")}
	if err := s.st.Put("obj", []byte("data"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.dom.PutAttributes(sdb.PutRequest{Item: "item", Attrs: []sdb.Attr{{Name: "a", Value: "v"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.q.SendMessage([]byte("msg")); err != nil {
		t.Fatal(err)
	}
	s.receipt = s.q.ReceiveMessage(1)[0].ReceiptHandle
	env.Clock().Advance(2 * sqs.DefaultVisibility)
	return s
}

// state fingerprints what the three services hold.
func (s *services) state() string {
	return fmt.Sprint(s.st.Stats(), s.dom.ItemCount(), s.q.Len())
}

// TestEndpointEnvelope runs all 15 request kinds through the four outcomes
// the envelope has. A clean rejection costs exactly one billed request of the
// op's class and one zero-payload tick of its kind, leaves the services'
// state untouched and returns a transient error — an empty page for
// ReceiveMessage, whose contract already is "nothing visible, poll again". A
// fault applied to a mutating op changes the state and still returns the
// error. With a retry layer installed both are absorbed: the call succeeds
// and the state is what one successful call leaves.
func TestEndpointEnvelope(t *testing.T) {
	put := sdb.PutRequest{Item: "new", Attrs: []sdb.Attr{{Name: "a", Value: "v"}}}
	for _, op := range []struct {
		kind     string
		endpoint string
		class    sim.CostClass
		mutating bool
		run      func(s *services) error
	}{
		{"s3.GET", "s3", sim.CostS3Get, false, func(s *services) error { _, err := s.st.Get("obj"); return err }},
		{"s3.HEAD", "s3", sim.CostS3Get, false, func(s *services) error { _, err := s.st.Head("obj"); return err }},
		{"s3.PUT", "s3", sim.CostS3Put, true, func(s *services) error { return s.st.Put("new", []byte("data"), nil) }},
		{"s3.COPY", "s3", sim.CostS3Put, true, func(s *services) error { return s.st.Copy("obj", "new", nil) }},
		{"s3.DELETE", "s3", sim.CostFree, true, func(s *services) error { return s.st.Delete("obj") }},
		{"s3.LIST", "s3", sim.CostS3Put, false, func(s *services) error { _, err := s.st.List("", "", 0); return err }},
		{"sdb.GetAttributes", "prov", sim.CostSDB, false, func(s *services) error { _, err := s.dom.GetAttributes("item"); return err }},
		{"sdb.Select", "prov", sim.CostSDB, false, func(s *services) error { _, err := s.dom.SelectQuery(sdb.Query{Domain: "prov"}, ""); return err }},
		{"sdb.PutAttributes", "prov", sim.CostSDB, true, func(s *services) error { return s.dom.PutAttributes(put) }},
		{"sdb.BatchPutAttributes", "prov", sim.CostSDB, true, func(s *services) error { return s.dom.BatchPutAttributes([]sdb.PutRequest{put}) }},
		{"sdb.BatchDeleteAttributes", "prov", sim.CostSDB, true, func(s *services) error { return s.dom.BatchDeleteAttributes([]string{"item"}) }},
		{"sqs.SendMessage", "wal", sim.CostSQS, true, func(s *services) error { _, err := s.q.SendMessage([]byte("more")); return err }},
		{"sqs.ReceiveMessage", "wal", sim.CostSQS, false, func(s *services) error {
			if len(s.q.ReceiveMessage(1)) == 0 {
				return errEmptyPage
			}
			return nil
		}},
		{"sqs.SendMessageBatch", "wal", sim.CostSQS, true, func(s *services) error {
			_, err := s.q.SendMessageBatch([][]byte{[]byte("more"), []byte("and more")})
			return err
		}},
		{"sqs.DeleteMessageBatch", "wal", sim.CostSQS, true, func(s *services) error { return s.q.DeleteMessageBatch([]string{s.receipt}) }},
	} {
		transient := &sim.TransientError{Endpoint: op.endpoint, Op: op.kind, Code: sim.CodeServiceUnavailable}
		// rejected reports whether err is how the op's caller sees a fault.
		rejected := func(err error) bool {
			if op.kind == "sqs.ReceiveMessage" {
				return err == errEmptyPage
			}
			return sim.IsTransient(err)
		}
		// applyOnce makes the first attempt of the op fail after applying; an
		// attempt a service latency later passes.
		applyOnce := func(s *services) {
			s.env.InstallFaults(sim.FaultPlan{op.endpoint: {
				Prob: 1, ApplyProb: 1, Ops: []string{op.kind}, Until: s.env.Now() + time.Millisecond,
			}})
		}

		t.Run(op.kind, func(t *testing.T) {
			clean := newServices(t)
			if err := op.run(clean); err != nil {
				t.Fatalf("with no fault: %v", err)
			}
			done := clean.state()

			s := newServices(t)
			before, u0 := s.state(), s.env.Meter().Usage()
			if op.mutating == (done == before) {
				t.Fatalf("a successful call takes the state from %s to %s", before, done)
			}
			s.faults.FailOp(op.endpoint, op.kind, transient)
			if err := op.run(s); !rejected(err) {
				t.Fatalf("clean rejection returned %v", err)
			}
			u1 := s.env.Meter().Usage()
			for class, n := range u1.Requests {
				want := int64(0)
				if class == op.class {
					want = 1
				}
				if got := n - u0.Requests[class]; got != want {
					t.Errorf("clean rejection billed %d %s requests, want %d", got, class, want)
				}
			}
			if ops, bytes := u1.OpsByKind[op.kind]-u0.OpsByKind[op.kind], u1.BytesByKind[op.kind]-u0.BytesByKind[op.kind]; ops != 1 || bytes != 0 {
				t.Errorf("clean rejection metered %d ops carrying %d bytes, want 1 carrying 0", ops, bytes)
			}
			if got := u1.OpsByEndpoint[op.endpoint] - u0.OpsByEndpoint[op.endpoint]; got != 1 {
				t.Errorf("clean rejection counted %d requests against %s, want 1", got, op.endpoint)
			}
			if got := s.state(); got != before {
				t.Errorf("clean rejection changed the state: %s -> %s", before, got)
			}
			s.faults.ClearOp(op.endpoint, op.kind)

			if op.mutating {
				applyOnce(s)
				if err := op.run(s); !sim.IsTransient(err) {
					t.Fatalf("applied fault returned %v", err)
				}
				if got := s.state(); got != done {
					t.Errorf("applied fault left %s, a successful call leaves %s", got, done)
				}
			}
			if op.kind == "sqs.ReceiveMessage" {
				return // a faulted poll is an empty page with or without a retry layer
			}

			s = newServices(t)
			s.env.SetRetry(resilient.New(s.env, resilient.Policy{}))
			s.faults.FailNextOp(op.endpoint, op.kind, transient)
			if err := op.run(s); err != nil {
				t.Fatalf("retry layer did not absorb a clean rejection: %v", err)
			}
			if got := s.state(); got != done {
				t.Errorf("retried clean rejection left %s, want %s", got, done)
			}
			if op.mutating {
				s = newServices(t)
				s.env.SetRetry(resilient.New(s.env, resilient.Policy{}))
				applyOnce(s)
				if err := op.run(s); err != nil {
					t.Fatalf("retry layer did not absorb an applied fault: %v", err)
				}
				if got := s.state(); got != done {
					t.Errorf("retried applied fault left %s, want %s", got, done)
				}
				if got := s.env.Meter().Usage().Faults; got != 1 {
					t.Errorf("%d faults injected, want 1", got)
				}
			}
		})
	}
}

// errEmptyPage stands for ReceiveMessage returning no messages.
var errEmptyPage = errors.New("empty page")
