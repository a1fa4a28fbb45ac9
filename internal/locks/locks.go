// Package locks implements the real (non-simulated) lock algorithms of
// the paper and its baselines, all usable from ordinary Go code:
//
//   - TAS, TTAS and exponential-backoff test-and-set spinlocks
//   - Ticket lock
//   - MCS queue lock (spin) and MCS spin-then-park
//   - BargingMutex, a futex-style unfair blocking mutex standing in for
//     pthread_mutex_lock
//   - Proportional, a two-queue lock equivalent to the paper's
//     ShflLock with the proportional-based static policy (SHFL-PBn)
//   - Reorderable, the paper's Algorithm 1 on top of any FIFO lock
//   - ASLMutex, the paper's Algorithm 3 binding Reorderable to the
//     epoch/SLO feedback in internal/core
//   - Biased, a single-owner wrapper over any WLock: once a worker's
//     take-share crosses the adoption threshold its acquires become
//     plain atomic stores, and any other worker revokes the bias
//     through an epoch/handshake grace period before falling back to
//     the wrapped lock
//
// Locks here favour clarity and faithfulness to the published
// algorithms over absolute peak performance, but all avoid allocation
// on the hot path and pad contended words to cache lines.
package locks

import (
	"runtime"
	"sync"
)

// Locker is the basic lock interface; identical to sync.Locker and
// redeclared only so this package reads standalone.
type Locker = sync.Locker

// FIFOLock is a lock that admits waiters in arrival order and can
// report whether it is currently free. The reorderable lock (Algorithm
// 1) is built on this interface; MCS and Ticket implement it.
type FIFOLock interface {
	Locker
	// TryLock acquires the lock iff it is free, without queueing.
	TryLock() bool
	// IsFree reports (approximately) whether the lock is free with no
	// waiters; standby competitors poll this.
	IsFree() bool
}

// pad is inserted between contended fields to avoid false sharing. 128
// bytes covers adjacent-line prefetching on common x86 parts.
type pad [128]byte

// yieldEvery controls how often busy-wait loops yield to the Go
// scheduler. Pure spinning deadlocks when GOMAXPROCS is smaller than
// the number of spinners, so every spin loop in this package calls
// runtime.Gosched periodically.
const yieldEvery = 64

// spinner is a tiny busy-wait helper with periodic scheduler yields.
type spinner struct{ n uint }

// singleP caches whether the runtime has only one processor, in which
// case busy-waiting can never make progress and every spin must yield.
var singleP = runtime.GOMAXPROCS(0) == 1

// spin performs one wait iteration.
func (s *spinner) spin() {
	if singleP {
		runtime.Gosched()
		return
	}
	s.n++
	if s.n%yieldEvery == 0 {
		runtime.Gosched()
		return
	}
	// A short arithmetic loop approximates a PAUSE-style delay without
	// hammering the contended cache line.
	for i := 0; i < 4; i++ {
		_ = i
	}
}

// backoff is a bounded exponential backoff helper.
type backoff struct {
	cur, max uint
}

func newBackoff(initial, max uint) backoff { return backoff{cur: initial, max: max} }

// wait busy-waits for the current backoff duration (in spin units) and
// doubles it, saturating at max.
func (b *backoff) wait() {
	var s spinner
	for i := uint(0); i < b.cur; i++ {
		s.spin()
	}
	if b.cur < b.max {
		b.cur <<= 1
		if b.cur > b.max {
			b.cur = b.max
		}
	}
}
