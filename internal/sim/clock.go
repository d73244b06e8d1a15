package sim

import (
	"runtime"
	"sync"
	"time"
)

// Clock is the virtual clock of a simulated environment.
//
// In live mode (scale > 0) virtual time is wall time multiplied by scale:
// one real second carries scale simulated seconds, Sleep blocks for the
// scaled-down real duration, and concurrent sleepers genuinely overlap, so
// parallelism in protocols shows up in elapsed virtual time exactly as it
// would on real services.
//
// In manual mode (scale == 0) Sleep advances a logical clock without
// blocking. Manual mode is for unit tests, which assert behaviour and
// counters rather than latency.
type Clock struct {
	mu    sync.Mutex
	scale float64
	base  time.Duration // manual-mode logical now / live-mode start offset
	start time.Time     // live-mode wall anchor
}

// NewClock returns a clock in live mode if scale > 0, else manual mode.
func NewClock(scale float64) *Clock {
	return &Clock{scale: scale, start: time.Now()}
}

// Live reports whether the clock runs in live (scaled wall time) mode.
func (c *Clock) Live() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scale > 0
}

// Scale returns the live-mode time scale (simulated seconds per real
// second), or zero in manual mode.
func (c *Clock) Scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scale
}

// Now returns the current virtual time since the clock's epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nowLocked()
}

func (c *Clock) nowLocked() time.Duration {
	if c.scale > 0 {
		return c.base + time.Duration(float64(time.Since(c.start))*c.scale)
	}
	return c.base
}

// Sleep advances virtual time by d. In live mode it blocks for d/scale of
// real time; in manual mode it advances the logical clock immediately.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	scale := c.scale
	if scale <= 0 {
		c.base += d
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	sleepPrecise(time.Duration(float64(d) / scale))
}

// SleepUntil blocks until virtual time t (no-op if t is in the past).
func (c *Clock) SleepUntil(t time.Duration) {
	for {
		c.mu.Lock()
		scale := c.scale
		if scale <= 0 {
			if t > c.base {
				c.base = t
			}
			c.mu.Unlock()
			return
		}
		d := t - c.nowLocked()
		c.mu.Unlock()
		if d <= 0 {
			return
		}
		sleepPrecise(time.Duration(float64(d) / scale))
	}
}

// Advance moves a manual clock forward by d. It is a no-op in live mode and
// exists so tests can expire consistency windows and retention periods.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if c.scale <= 0 {
		c.base += d
	}
	c.mu.Unlock()
}

// SetScale switches the clock's mode in place, preserving the current
// virtual time: scale 0 freezes into manual mode, scale > 0 resumes live.
// Experiments use it to populate a deployment instantly (manual) and then
// measure queries live.
func (c *Clock) SetScale(scale float64) {
	c.mu.Lock()
	c.base = c.nowLocked()
	c.start = time.Now()
	c.scale = scale
	c.mu.Unlock()
}

// spinBelow is the real-time threshold under which sleepPrecise spins
// instead of calling time.Sleep. It must stay small: a spinning sleeper
// occupies a core for its whole duration, so generous spinning collapses
// when an experiment runs more connections than the host has cores. The
// experiments instead pick time scales that keep measured-path sleeps in
// time.Sleep's accurate range (≥ ~2ms real).
const spinBelow = 120 * time.Microsecond

// sleepPrecise sleeps for d of real time with sub-millisecond accuracy,
// using time.Sleep for the bulk and yielding spins for the tail.
func sleepPrecise(d time.Duration) {
	deadline := time.Now().Add(d)
	if coarse := d - spinBelow; coarse > 0 {
		time.Sleep(coarse)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
