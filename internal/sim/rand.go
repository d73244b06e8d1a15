package sim

import (
	"math/rand"
	"sync"
	"time"
)

// Rand is a mutex-guarded deterministic random source. Every stochastic
// choice in the simulation (staleness windows, latency jitter, duplicate
// deliveries, uuids, workload shapes) draws from one seeded stream. That
// makes a run reproducible only while one goroutine draws: when several
// draw concurrently, the scheduler decides who gets which value, and the
// seed no longer determines the run. Per-actor streams under a
// discrete-event scheduler are the fix (ROADMAP item 1).
type Rand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRand returns a source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{rng: rand.New(rand.NewSource(seed))}
}

// Intn returns an int in [0, n).
func (r *Rand) Intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(n)
}

// Float64 returns a float in [0, 1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// Exp samples an exponential distribution with the given mean.
func (r *Rand) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	r.mu.Lock()
	x := r.rng.ExpFloat64()
	r.mu.Unlock()
	if x > 8 { // clamp the tail so a single sample cannot stall a run
		x = 8
	}
	return time.Duration(x * float64(mean))
}

// Jitter returns a symmetric random perturbation of d with relative
// magnitude frac (e.g. 0.04 for ±4%).
func (r *Rand) Jitter(d time.Duration, frac float64) time.Duration {
	if frac <= 0 || d <= 0 {
		return 0
	}
	r.mu.Lock()
	u := r.rng.Float64()*2 - 1
	r.mu.Unlock()
	return time.Duration(u * frac * float64(d))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bytes fills a new n-byte slice with pseudo-random content.
func (r *Rand) Bytes(n int) []byte {
	b := make([]byte, n)
	r.mu.Lock()
	r.rng.Read(b)
	r.mu.Unlock()
	return b
}

// NormInt samples a normal distribution with the given mean and standard
// deviation, clamped to be at least min.
func (r *Rand) NormInt(mean, stddev, min int) int {
	r.mu.Lock()
	x := r.rng.NormFloat64()
	r.mu.Unlock()
	v := int(float64(mean) + x*float64(stddev))
	if v < min {
		return min
	}
	return v
}
