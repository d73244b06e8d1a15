package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chk runs one fault check and returns just the error.
func chk(f *FaultInjector, endpoint, op string, mutating bool) error {
	err, _ := f.Check(endpoint, op, mutating)
	return err
}

// TestFaultPlanResolution pins the key-resolution order — exact endpoint,
// then service class, then wildcard — including that a present endpoint
// entry shields the endpoint from a broader class entry even when its own
// spec does not match.
func TestFaultPlanResolution(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(FaultPlan{
		"prov-2": {Prob: 1, Ops: []string{"sdb.Select"}},
		"sdb":    {Prob: 1},
		"*":      {Prob: 1, Code: "Wildcard"},
	})

	// Exact endpoint entry wins and restricts to its op list.
	if err := chk(inj, "prov-2", "sdb.Select", false); !IsTransient(err) {
		t.Fatalf("exact endpoint entry did not fire: %v", err)
	}
	// The endpoint entry shields prov-2 from the class entry: a non-listed
	// op passes clean even though "sdb" would fault it.
	if err := chk(inj, "prov-2", "sdb.PutAttributes", true); err != nil {
		t.Fatalf("endpoint entry failed to shield non-listed op: %v", err)
	}
	// Other domains fall through to the class entry.
	if err := chk(inj, "prov-0", "sdb.PutAttributes", true); !IsTransient(err) {
		t.Fatalf("class entry did not fire: %v", err)
	}
	// Unrelated services fall through to the wildcard.
	err := chk(inj, "s3", "s3.PUT", true)
	var te *TransientError
	if !errors.As(err, &te) || te.Code != "Wildcard" {
		t.Fatalf("wildcard entry did not fire with its code: %v", err)
	}
}

// TestFaultDefaultCodes pins the conventional per-service error codes.
func TestFaultDefaultCodes(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(UniformPlan(1, 0))
	for _, tc := range []struct{ op, code string }{
		{"s3.PUT", CodeSlowDown},
		{"sdb.Select", CodeServiceUnavailable},
		{"sqs.SendMessage", CodeServiceUnavailable},
	} {
		err := chk(inj, "ep", tc.op, false)
		var te *TransientError
		if !errors.As(err, &te) || te.Code != tc.code {
			t.Fatalf("%s: got %v, want code %s", tc.op, err, tc.code)
		}
	}
}

// TestForcedFaults pins FailOp (persistent until cleared), FailNextOp
// (one-shot) and the any-op slot.
func TestForcedFaults(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(nil)
	boom := errors.New("boom")

	inj.FailOp("prov-1", "sdb.Select", boom)
	for i := 0; i < 3; i++ {
		if err := chk(inj, "prov-1", "sdb.Select", false); !errors.Is(err, boom) {
			t.Fatalf("persistent forced fault pass %d: %v", i, err)
		}
	}
	if err := chk(inj, "prov-1", "sdb.PutAttributes", true); err != nil {
		t.Fatalf("forced fault leaked onto another op: %v", err)
	}
	inj.ClearOp("prov-1", "sdb.Select")
	if err := chk(inj, "prov-1", "sdb.Select", false); err != nil {
		t.Fatalf("ClearOp did not disarm: %v", err)
	}

	inj.FailNextOp("wal-0", "sqs.SendMessage", boom)
	if err := chk(inj, "wal-0", "sqs.SendMessage", true); !errors.Is(err, boom) {
		t.Fatalf("one-shot fault did not fire: %v", err)
	}
	if err := chk(inj, "wal-0", "sqs.SendMessage", true); err != nil {
		t.Fatalf("one-shot fault fired twice: %v", err)
	}

	// The empty-op slot faults every op on the endpoint.
	inj.FailOp("s3", "", boom)
	if err := chk(inj, "s3", "s3.GET", false); !errors.Is(err, boom) {
		t.Fatalf("any-op forced fault did not fire: %v", err)
	}
	inj.ClearOp("s3", "")
}

// TestFaultWindow pins the From/Until virtual-time bounds.
func TestFaultWindow(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(FaultPlan{
		"*": {Prob: 1, From: 10 * time.Second, Until: 20 * time.Second},
	})
	if err := chk(inj, "ep", "s3.PUT", true); err != nil {
		t.Fatalf("fault fired before the window: %v", err)
	}
	env.Clock().Advance(15 * time.Second)
	if err := chk(inj, "ep", "s3.PUT", true); !IsTransient(err) {
		t.Fatalf("fault did not fire inside the window: %v", err)
	}
	env.Clock().Advance(10 * time.Second)
	if err := chk(inj, "ep", "s3.PUT", true); err != nil {
		t.Fatalf("fault fired after the window: %v", err)
	}
}

// TestFaultApplyProb pins the ambiguous fail-applied outcome: it only occurs
// on mutating ops, with ApplyProb 1 every mutating fault is applied, and with
// ApplyProb 0 none is.
func TestFaultApplyProb(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(UniformPlan(1, 1))
	if err, applied := inj.Check("ep", "sdb.PutAttributes", true); !IsTransient(err) || !applied {
		t.Fatalf("ApplyProb=1 mutating fault: err=%v applied=%v, want transient+applied", err, applied)
	}
	if err, applied := inj.Check("ep", "sdb.Select", false); !IsTransient(err) || applied {
		t.Fatalf("read op drew the applied outcome: err=%v applied=%v", err, applied)
	}
	inj.SetPlan(UniformPlan(1, 0))
	if err, applied := inj.Check("ep", "sdb.PutAttributes", true); !IsTransient(err) || applied {
		t.Fatalf("ApplyProb=0 mutating fault: err=%v applied=%v, want clean rejection", err, applied)
	}
}

// TestFaultDeterminism pins that two injectors with the same seed draw the
// identical fault sequence, and that fault draws do not consume from the
// environment's random stream.
func TestFaultDeterminism(t *testing.T) {
	seq := func() []bool {
		env := NewEnv(DefaultConfig())
		inj := env.InstallFaults(UniformPlan(0.3, 0.5))
		out := make([]bool, 64)
		for i := range out {
			out[i] = chk(inj, "ep", "s3.PUT", true) != nil
		}
		return out
	}
	a, b := seq(), seq()
	any := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at %d", i)
		}
		any = any || a[i]
	}
	if !any {
		t.Fatal("no faults drawn at Prob=0.3 over 64 requests")
	}

	// Arming a plan must not perturb the environment's own stream.
	envA := NewEnv(DefaultConfig())
	envB := NewEnv(DefaultConfig())
	envB.InstallFaults(UniformPlan(0.5, 0.5))
	for i := 0; i < 16; i++ {
		envB.FaultPoint("ep", "s3.PUT", true)
	}
	for i := 0; i < 8; i++ {
		if a, b := envA.Rand().Float64(), envB.Rand().Float64(); a != b {
			t.Fatalf("fault draws perturbed the env stream at %d: %v != %v", i, a, b)
		}
	}
}

// TestFaultMeterCounts pins that every injected fault — probabilistic and
// forced — is counted by the meter, per endpoint.
func TestFaultMeterCounts(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(UniformPlan(1, 0))
	for i := 0; i < 3; i++ {
		chk(inj, "prov-0", "sdb.Select", false)
	}
	inj.SetPlan(nil)
	inj.FailNextOp("wal-0", "sqs.SendMessage", errors.New("boom"))
	chk(inj, "wal-0", "sqs.SendMessage", true)

	u := env.Meter().Usage()
	if u.Faults != 4 {
		t.Fatalf("Faults = %d, want 4", u.Faults)
	}
	if u.FaultsByEndpoint["prov-0"] != 3 || u.FaultsByEndpoint["wal-0"] != 1 {
		t.Fatalf("FaultsByEndpoint = %v", u.FaultsByEndpoint)
	}
}

// TestIsTransientJoin pins that IsTransient descends into joined error
// chains, which is how P3's cleanup pass classifies collected failures.
func TestIsTransientJoin(t *testing.T) {
	te := &TransientError{Endpoint: "s3", Op: "s3.PUT", Code: CodeSlowDown}
	if !IsTransient(errors.Join(errors.New("other"), te)) {
		t.Fatal("IsTransient missed a joined transient error")
	}
	if IsTransient(errors.Join(errors.New("a"), errors.New("b"))) {
		t.Fatal("IsTransient misfired on a plain join")
	}
}

const (
	crashTestPoint  CrashPoint = "test.point"
	crashTestOther  CrashPoint = "test.other"
	crashTestCounts CrashPoint = "test.counted"
)

// TestCrashPointUnarmed pins the cold path: an unarmed check is false with
// no injector installed, with one installed, and with a different point
// armed — and consumes nothing.
func TestCrashPointUnarmed(t *testing.T) {
	env := NewEnv(DefaultConfig())
	if env.Crashed(crashTestPoint) {
		t.Fatal("crash fired with no injector installed")
	}
	inj := env.InstallFaults(nil)
	if env.Crashed(crashTestPoint) {
		t.Fatal("crash fired on an unarmed injector")
	}
	inj.CrashAt(crashTestOther, 0)
	if env.Crashed(crashTestPoint) {
		t.Fatal("arming one point fired another")
	}
	if got := inj.ArmedCrashes(); len(got) != 1 || got[0] != crashTestOther {
		t.Fatalf("ArmedCrashes = %v, want [%s]", got, crashTestOther)
	}
}

// TestCrashPointOneShot pins consumption: an armed point fires once, then
// reads unarmed until armed again.
func TestCrashPointOneShot(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(nil)
	for round := 0; round < 2; round++ {
		inj.CrashAt(crashTestPoint, 0)
		if !env.Crashed(crashTestPoint) {
			t.Fatalf("round %d: armed point did not fire", round)
		}
		if env.Crashed(crashTestPoint) {
			t.Fatalf("round %d: point fired twice", round)
		}
		if left := inj.ArmedCrashes(); len(left) != 0 {
			t.Fatalf("round %d: fired point still armed: %v", round, left)
		}
	}
}

// TestCrashPointCount pins the counted sites' payload: the armed count comes
// back from the check, a piece of work no larger than the count does not
// fire and leaves the point armed, and the plain check ignores the count.
func TestCrashPointCount(t *testing.T) {
	env := NewEnv(DefaultConfig())
	inj := env.InstallFaults(nil)
	inj.CrashAt(crashTestCounts, 3)
	for _, total := range []int{0, 1, 3} {
		if n, hit := env.CrashedAfter(crashTestCounts, total); hit || n != 0 {
			t.Fatalf("count 3 fired on %d units of work (n=%d)", total, n)
		}
	}
	if n, hit := env.CrashedAfter(crashTestCounts, 4); !hit || n != 3 {
		t.Fatalf("CrashedAfter = (%d, %v), want (3, true)", n, hit)
	}
	if _, hit := env.CrashedAfter(crashTestCounts, 4); hit {
		t.Fatal("counted point fired twice")
	}
	inj.CrashAt(crashTestCounts, 7)
	if !env.Crashed(crashTestCounts) {
		t.Fatal("plain check did not fire on a counted point")
	}
}

// TestCrashPointConcurrentTakers races 16 goroutines to one armed point:
// exactly one of them dies there (the mid-copy site is reached by a whole
// flush pool at once).
func TestCrashPointConcurrentTakers(t *testing.T) {
	env := NewEnv(DefaultConfig())
	env.InstallFaults(nil).CrashAt(crashTestPoint, 0)
	var hits atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if env.Crashed(crashTestPoint) {
				hits.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := hits.Load(); got != 1 {
		t.Fatalf("%d of 16 racing takers hit the point, want exactly 1", got)
	}
}

// TestCrashPointDrawsNothing pins that arming and firing a crash point draw
// from neither the injector's nor the environment's random stream: at one
// seed, an environment that armed and fired points continues both streams
// exactly where a never-armed twin does.
func TestCrashPointDrawsNothing(t *testing.T) {
	armed, twin := NewEnv(DefaultConfig()), NewEnv(DefaultConfig())
	inj := armed.InstallFaults(nil)
	twinInj := twin.InstallFaults(nil)
	inj.CrashAt(crashTestPoint, 0)
	inj.CrashAt(crashTestCounts, 2)
	if !armed.Crashed(crashTestPoint) {
		t.Fatal("armed point did not fire")
	}
	if _, hit := armed.CrashedAfter(crashTestCounts, 5); !hit {
		t.Fatal("counted point did not fire")
	}
	twin.Crashed(crashTestPoint)
	for i := 0; i < 8; i++ {
		if a, b := armed.Rand().Float64(), twin.Rand().Float64(); a != b {
			t.Fatalf("crash points perturbed the env stream at %d: %v != %v", i, a, b)
		}
		if a, b := inj.rnd.Float64(), twinInj.rnd.Float64(); a != b {
			t.Fatalf("crash points perturbed the fault stream at %d: %v != %v", i, a, b)
		}
	}
}
