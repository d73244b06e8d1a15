package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestManualClockSleepAdvances(t *testing.T) {
	c := NewClock(0)
	if c.Live() {
		t.Fatal("scale 0 should be manual mode")
	}
	c.Sleep(3 * time.Second)
	if got := c.Now(); got != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", got)
	}
	c.SleepUntil(2 * time.Second) // in the past: no-op
	if got := c.Now(); got != 3*time.Second {
		t.Fatalf("Now = %v after past SleepUntil, want 3s", got)
	}
	c.SleepUntil(5 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
	c.Advance(time.Second)
	if got := c.Now(); got != 6*time.Second {
		t.Fatalf("Now = %v after Advance, want 6s", got)
	}
}

func TestLiveClockScales(t *testing.T) {
	c := NewClock(1000) // 1000 sim seconds per real second
	start := c.Now()
	c.Sleep(500 * time.Millisecond) // 0.5 ms real
	elapsed := c.Now() - start
	if elapsed < 400*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("live elapsed = %v, want ≈500ms", elapsed)
	}
}

func TestGateEnforcesRate(t *testing.T) {
	e := NewEnv(DefaultConfig())
	// N admissions through a gate with rate R must span (N-1)/R of
	// virtual time.
	const n = 11
	for i := 0; i < n; i++ {
		e.gates[gateSDBWrite].reserve(e.clock)
	}
	interval := e.model.gateInterval(gateSDBWrite)
	want := time.Duration(n-1) * interval
	if got := e.Now(); got < want {
		t.Fatalf("%d gated admissions advanced clock to %v, want ≥ %v", n, got, want)
	}
}

func TestExecChargesMeterAndClock(t *testing.T) {
	e := NewEnv(DefaultConfig())
	e.Endpoint("s3", 0).Exec(OpS3Put, 1<<20, 0)
	u := e.Meter().Usage()
	if u.Requests[CostS3Put] != 1 {
		t.Fatalf("put-like requests = %d, want 1", u.Requests[CostS3Put])
	}
	if u.BytesIn != 1<<20 {
		t.Fatalf("bytesIn = %d, want 1MiB", u.BytesIn)
	}
	if e.Now() <= 0 {
		t.Fatal("Exec did not advance the clock")
	}
}

func TestExecReadBillsTransferOut(t *testing.T) {
	e := NewEnv(DefaultConfig())
	e.Endpoint("s3", 0).Exec(OpS3Get, 4096, 0)
	u := e.Meter().Usage()
	if u.BytesOut != 4096 {
		t.Fatalf("bytesOut = %d, want 4096", u.BytesOut)
	}
	if u.BytesIn != 0 {
		t.Fatalf("bytesIn = %d, want 0", u.BytesIn)
	}
}

func TestStrictModeHasNoStaleness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Consistency = Strict
	e := NewEnv(cfg)
	for i := 0; i < 100; i++ {
		if w := e.StalenessWindow(); w != 0 {
			t.Fatalf("strict staleness window = %v, want 0", w)
		}
	}
}

func TestEventualStalenessIsBoundedAndVaries(t *testing.T) {
	e := NewEnv(DefaultConfig())
	saw := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		w := e.StalenessWindow()
		if w < 0 || w > 10*DefaultStalenessMean {
			t.Fatalf("staleness window %v out of bounds", w)
		}
		saw[w] = true
	}
	if len(saw) < 10 {
		t.Fatalf("staleness windows look constant: %d distinct values", len(saw))
	}
}

func TestDeterminismAcrossEnvs(t *testing.T) {
	a, b := NewEnv(DefaultConfig()), NewEnv(DefaultConfig())
	for i := 0; i < 50; i++ {
		if x, y := a.Rand().Int63(), b.Rand().Int63(); x != y {
			t.Fatalf("seeded streams diverge at %d: %d vs %d", i, x, y)
		}
	}
}

func TestUMLClientOpCostsMore(t *testing.T) {
	plain := NewEnv(DefaultConfig())
	cfgUML := DefaultConfig()
	cfgUML.UML = true
	uml := NewEnv(cfgUML)
	plain.ClientOp(1 << 20)
	uml.ClientOp(1 << 20)
	if uml.Now() <= plain.Now() {
		t.Fatalf("UML op (%v) should cost more than native (%v)", uml.Now(), plain.Now())
	}
}

func TestDec09IsFasterThanSept09(t *testing.T) {
	sept := ModelFor(Config{Era: EraSept09})
	dec := ModelFor(Config{Era: EraDec09})
	if dec.S3PutBase >= sept.S3PutBase {
		t.Fatalf("Dec09 S3 put %v not faster than Sept09 %v", dec.S3PutBase, sept.S3PutBase)
	}
	if dec.SQSSendBase >= sept.SQSSendBase {
		t.Fatal("Dec09 SQS send not faster")
	}
}

func TestLocalSiteIsSlowerPerRequest(t *testing.T) {
	ec2 := ModelFor(Config{Site: SiteEC2})
	local := ModelFor(Config{Site: SiteLocal})
	if local.S3GetBase <= ec2.S3GetBase {
		t.Fatal("local site should add WAN latency to reads")
	}
	if local.S3WriteBps >= ec2.S3WriteBps {
		t.Fatal("local site should have lower upload bandwidth")
	}
}

func TestConnectionScalingShape(t *testing.T) {
	// Modelled throughput (ops/sec) of a saturated client with n
	// connections: n workers issuing gated ops of service time T.
	throughput := func(n int, base time.Duration, rate float64) float64 {
		perConn := 1 / base.Seconds() * float64(n)
		if perConn > rate {
			return rate
		}
		return perConn
	}
	m := ModelFor(DefaultConfig())
	// SimpleDB batches stop improving past ~40 connections.
	at40 := throughput(40, m.SDBBatchBase+24*m.SDBBatchItem, m.SDBWriteRate)
	at150 := throughput(150, m.SDBBatchBase+24*m.SDBBatchItem, m.SDBWriteRate)
	if at150 > at40*1.01 {
		t.Fatalf("SimpleDB should plateau by 40 conns: 40→%.2f 150→%.2f", at40, at150)
	}
	// S3 writes keep scaling between 40 and 150 connections.
	s40 := throughput(40, m.S3PutBase, m.S3WriteRate)
	s150 := throughput(150, m.S3PutBase, m.S3WriteRate)
	if s150 < s40*1.5 {
		t.Fatalf("S3 should still scale at 150 conns: 40→%.2f 150→%.2f", s40, s150)
	}
}

func TestCostSheet(t *testing.T) {
	u := Usage{Requests: map[CostClass]int64{CostS3Put: 1000, CostS3Get: 10000, CostSQS: 10000}}
	got := u.Cost(0)
	want := 0.01 + 0.01 + 0.01
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = %f, want %f", got, want)
	}
	// The paper: 1000 copy operations cost $0.01 on S3.
	copies := Usage{Requests: map[CostClass]int64{CostS3Put: 1000}}
	if c := copies.Cost(0); c < 0.0099 || c > 0.0101 {
		t.Fatalf("1000 copies cost $%.4f, want $0.01", c)
	}
}

func TestStorageBilling(t *testing.T) {
	u := Usage{PeakStored: 1 << 30}
	if c := u.Cost(0); c != 0 {
		t.Fatalf("zero window should bill no storage, got %f", c)
	}
	month := 30 * 24 * time.Hour
	if c := u.Cost(month); c < 0.149 || c > 0.151 {
		t.Fatalf("1GB for a month = $%.4f, want ≈$0.15", c)
	}
}

func TestMeterConcurrentSafety(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.CountRequest(CostS3Put, 1)
				m.AddTransferIn(10)
				m.CountOp("s3.PUT", 10)
			}
		}()
	}
	wg.Wait()
	u := m.Usage()
	if u.Requests[CostS3Put] != 1600 || u.BytesIn != 16000 || u.OpsByKind["s3.PUT"] != 1600 {
		t.Fatalf("lost updates: %+v", u)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(7)
	f := func(ms uint16) bool {
		d := time.Duration(ms) * time.Millisecond
		j := r.Jitter(d, 0.04)
		lim := time.Duration(0.041 * float64(d))
		return j >= -lim && j <= lim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpNeverNegativeProperty(t *testing.T) {
	r := NewRand(9)
	f := func(ms uint16) bool {
		return r.Exp(time.Duration(ms)*time.Millisecond) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormIntRespectsMin(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.NormInt(10, 100, 5); v < 5 {
			t.Fatalf("NormInt returned %d below min", v)
		}
	}
}

func TestHostNetSpacesBulkTransfers(t *testing.T) {
	e := NewEnv(DefaultConfig())
	// Two 30 MB transfers cannot complete in less than 1 s of virtual time
	// on a 30 MB/s NIC (admission spacing alone guarantees it).
	e.reserveNet(30 << 20)
	e.reserveNet(30 << 20)
	if e.Now() < 900*time.Millisecond {
		t.Fatalf("second bulk admission at %v, want ≥ ~1s", e.Now())
	}
}

// TestOpSpecTable walks every op kind: each has its own non-empty metered
// name, and mutating — what makes an op eligible for the fail-after-applying
// fault — is set on the eleven writes and clear on the six reads, a
// ReceiveMessage included (its visibility timeouts are not service state a
// retry must converge over).
func TestOpSpecTable(t *testing.T) {
	mutating := map[OpKind]bool{
		OpS3Put: true, OpS3Copy: true, OpS3Delete: true,
		OpSDBPut: true, OpSDBBatchPut: true, OpSDBDelete: true, OpSDBBatchDelete: true,
		OpSQSSend: true, OpSQSSendBatch: true, OpSQSDelete: true, OpSQSDeleteBatch: true,
	}
	seen := make(map[string]OpKind)
	for op := OpKind(0); op < numOps; op++ {
		name := op.String()
		if name == "" || name == "op.unknown" {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("ops %d and %d share the name %q", prev, op, name)
		}
		seen[name] = op
		if got := opSpecs[op].mutating; got != mutating[op] {
			t.Errorf("%s: mutating = %v, want %v", name, got, mutating[op])
		}
	}
	if got := numOps.String(); got != "op.unknown" {
		t.Errorf("out-of-range op is named %q", got)
	}
}
