package locks

import (
	"sync/atomic"

	"repro/internal/core"
)

// ContentionStats snapshots a Contended lock's counters. Attempts is
// every entry to the lock (Acquire calls plus TryAcquire calls);
// Contended is the subset that did not get the lock immediately — an
// Acquire whose opening try failed and had to queue/park/stand by, or
// a TryAcquire that returned false. Contended/Attempts is the
// lock-wait fraction the shardedkv skew detector feeds on: a shard
// whose traffic share is high but whose lock is never contended is
// merely busy, not a convoy, and splitting it buys nothing.
type ContentionStats struct {
	Attempts  uint64
	Contended uint64
}

// ContendedFrac returns Contended/Attempts (0 when idle).
func (s ContentionStats) ContendedFrac() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Attempts)
}

// Contended decorates any WLock with contention counters. The probe is
// an opening TryAcquire on the wrapped lock: if it wins, the acquire
// was immediate (uncontended); otherwise the acquire falls through to
// the blocking path and is counted contended. The paper's §3.3
// trylock argument makes this safe for the whole comparison set — the
// reorderable layer never modifies the base lock, so a try-then-lock
// sequence preserves each family's semantics. The one behavioural
// shift is that the opening try can barge past a queue the blocking
// path would have joined.
type Contended struct {
	inner     WLock
	attempts  atomic.Uint64
	contended atomic.Uint64
}

// WithContention wraps l with contention counters.
func WithContention(l WLock) *Contended { return &Contended{inner: l} }

// Acquire takes the lock, counting whether it was immediate.
func (c *Contended) Acquire(w *core.Worker) {
	c.attempts.Add(1)
	if c.inner.TryAcquire(w) {
		return
	}
	c.contended.Add(1)
	c.inner.Acquire(w)
}

// Release releases the lock.
func (c *Contended) Release(w *core.Worker) { c.inner.Release(w) }

// TryAcquire tries the lock; a failed try counts as contention (the
// caller met a holder).
func (c *Contended) TryAcquire(w *core.Worker) bool {
	c.attempts.Add(1)
	if c.inner.TryAcquire(w) {
		return true
	}
	c.contended.Add(1)
	return false
}

// Stats snapshots the counters.
func (c *Contended) Stats() ContentionStats {
	return ContentionStats{Attempts: c.attempts.Load(), Contended: c.contended.Load()}
}

// FactoryContended wraps every lock a factory builds with contention
// counters. The shardedkv store does this internally when dynamic
// resharding is enabled; the factory form is for callers that inject
// locks elsewhere and still want the wait signal.
func FactoryContended(f Factory) Factory {
	return func() WLock { return WithContention(f()) }
}
