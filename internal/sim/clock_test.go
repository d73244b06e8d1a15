package sim

import (
	"sync"
	"testing"
	"time"
)

func TestSetScaleManualToLivePreservesNow(t *testing.T) {
	c := NewClock(0)
	c.Sleep(42 * time.Second)
	c.SetScale(1000)
	if !c.Live() {
		t.Fatal("clock not live after SetScale")
	}
	now := c.Now()
	if now < 42*time.Second || now > 43*time.Second {
		t.Fatalf("Now = %v after mode switch, want ≈42s", now)
	}
	c.Sleep(time.Second) // 1ms real
	if got := c.Now(); got < 43*time.Second {
		t.Fatalf("live sleep did not advance: %v", got)
	}
}

func TestSetScaleLiveToManualFreezes(t *testing.T) {
	c := NewClock(1000)
	c.Sleep(time.Second)
	c.SetScale(0)
	a := c.Now()
	time.Sleep(2 * time.Millisecond) // real time passes...
	if b := c.Now(); b != a {
		t.Fatalf("manual clock moved on its own: %v -> %v", a, b)
	}
	c.Sleep(5 * time.Second)
	if got := c.Now() - a; got != 5*time.Second {
		t.Fatalf("manual sleep advanced %v, want 5s", got)
	}
}

func TestClockConcurrentAccessIsSafe(t *testing.T) {
	c := NewClock(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Sleep(time.Millisecond)
				c.Now()
				c.SleepUntil(c.Now() + time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() <= 0 {
		t.Fatal("clock went nowhere")
	}
}

func TestSleepPreciseAccuracy(t *testing.T) {
	// Sub-threshold sleeps spin and must be accurate to tens of µs.
	for _, d := range []time.Duration{30 * time.Microsecond, 100 * time.Microsecond} {
		start := time.Now()
		sleepPrecise(d)
		got := time.Since(start)
		if got < d || got > d+500*time.Microsecond {
			t.Fatalf("sleepPrecise(%v) took %v", d, got)
		}
	}
}

func TestScaledElapsedRoughlyMatches(t *testing.T) {
	c := NewClock(2000)
	start := c.Now()
	for i := 0; i < 10; i++ {
		c.Sleep(2 * time.Second) // 1ms real each
	}
	got := c.Now() - start
	if got < 20*time.Second || got > 40*time.Second {
		t.Fatalf("10×2s scaled sleeps measured %v", got)
	}
}

// TestClockSetScaleRacesAdvance flips the clock's mode (what fabric.ToManual
// does) while another goroutine advances and reads it: Advance must read the
// scale under the lock SetScale writes it under.
func TestClockSetScaleRacesAdvance(t *testing.T) {
	c := NewClock(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.SetScale(float64(i % 2 * 1000))
		}
		c.SetScale(0)
	}()
	var last time.Duration
	for i := 0; i < 500; i++ {
		c.Advance(time.Millisecond)
		now := c.Now()
		if now < last {
			t.Fatalf("clock ran backwards across a mode flip: %v -> %v", last, now)
		}
		last = now
	}
	wg.Wait()
}
