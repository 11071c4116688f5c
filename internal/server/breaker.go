package server

import (
	"sync"
	"time"
)

// Breaker states, also exported as the dualsim_breaker_state gauge.
// closed(0): normal admission. open(2): reject-fast with Retry-After until
// the cooldown elapses. halfopen(3): one probe request is in flight; its
// outcome closes or re-opens the breaker. Value 1 is unused so that
// existing scrapes of the gauge keep their meaning.
const (
	breakerClosed   int32 = 0
	breakerOpen     int32 = 2
	breakerHalfOpen int32 = 3
)

func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerConfig tunes the pool breaker; zero fields take the defaults set
// in Config.withDefaults.
type breakerConfig struct {
	window     int           // outcomes remembered (sliding ring)
	minSamples int           // outcomes required before ratios apply
	openRatio  float64       // fault fraction that opens the breaker
	cooldown   time.Duration // open -> half-open delay
	now        func() time.Time
}

// breaker is the per-pool circuit breaker. It watches run outcomes — a
// transient-fault failure, or a successful run whose buffer pin-wait
// crossed the configured pressure threshold, counts as a fault — over a
// sliding window, opens (reject-fast with Retry-After) when their share
// crosses the open ratio, then recovers through single half-open probes.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    int32
	outcomes []bool // ring buffer, true = fault
	idx, n   int
	openedAt time.Time
	probing  bool
	trips    uint64
}

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &breaker{cfg: cfg, outcomes: make([]bool, cfg.window)}
}

// allow gates one request. ok=false rejects fast (retryAfter is the hint
// for the Retry-After header); probe marks the single half-open probe and
// must be passed to record (or cancelProbe) when the request settles.
func (b *breaker) allow() (ok bool, probe bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		since := b.cfg.now().Sub(b.openedAt)
		if since < b.cfg.cooldown {
			return false, false, b.cfg.cooldown - since
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true, 0
	case breakerHalfOpen:
		if b.probing {
			return false, false, b.cfg.cooldown
		}
		b.probing = true
		return true, true, 0
	}
	return true, false, 0
}

// record feeds one settled run outcome back. A probe outcome decides the
// half-open state: success closes the breaker (and forgets the bad
// window), a fault re-opens it. Non-probe outcomes recorded while the
// breaker is open or half-open (stragglers admitted before the trip) are
// ignored — the probe alone decides recovery.
func (b *breaker) record(fault bool, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if fault {
			b.trip()
		} else {
			b.state = breakerClosed
			b.idx, b.n = 0, 0
		}
		return
	}
	if b.state == breakerOpen || b.state == breakerHalfOpen {
		return
	}
	b.outcomes[b.idx] = fault
	b.idx = (b.idx + 1) % len(b.outcomes)
	if b.n < len(b.outcomes) {
		b.n++
	}
	if b.n < b.cfg.minSamples {
		return
	}
	faults := 0
	for i := 0; i < b.n; i++ {
		if b.outcomes[i] {
			faults++
		}
	}
	if float64(faults)/float64(b.n) >= b.cfg.openRatio {
		b.trip()
	}
}

// cancelProbe releases the half-open probe slot without judging it (the
// probe request never ran: parse error, admission race, client gone).
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.cfg.now()
	b.probing = false
	b.trips++
}

// snapshot returns the current state and cumulative trip count.
func (b *breaker) snapshot() (state int32, trips uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
