package cluster

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker machine.
// The numeric values are the wire contract of the
// fivm_cluster_breaker_state gauge — keep them stable.
type breakerState int

const (
	breakerClosed   breakerState = 0 // normal: every request passes
	breakerOpen     breakerState = 1 // tripped: requests fail fast until the cooldown elapses
	breakerHalfOpen breakerState = 2 // probing: exactly one request in flight decides the next state
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-shard circuit breaker: after threshold consecutive
// failures it opens and fails calls fast (no connection attempt, no
// backoff burned) until cooldown has passed, then lets exactly one
// probe through. The probe's outcome either closes the breaker or
// re-opens it for another cooldown.
//
// It deliberately counts only outcomes the caller feeds it — the
// fan-out loop reports transport failures and 503s, not 429s, so pure
// backpressure from a healthy shard never trips the breaker.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time

	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// Every shard's breaker opens after breakerThreshold consecutive
// retryable failures and fails fast for breakerCooldown before admitting
// a half-open probe.
const (
	breakerThreshold = 5
	breakerCooldown  = time.Second
)

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request may be sent now. In the open state
// the first call after the cooldown transitions to half-open and is
// admitted as the probe; every other open/half-open call is rejected
// without touching the network.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// onSuccess records a successful request: any state collapses back to
// closed with the failure streak cleared.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// onFailure records a failed request: a failed half-open probe re-opens
// immediately; in the closed state the streak counts toward threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	}
}

// current reports the state for the metrics gauge.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
