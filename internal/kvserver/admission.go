package kvserver

import (
	"sync"
	"sync/atomic"
)

// Class-aware admission at the serving boundary. Dice & Kogan's
// concurrency-restriction argument is that a saturated lock serves
// best with FEW active threads — extra entrants only lengthen the
// convoy. The shard lock's ASL policy already restricts concurrency
// among waiters; the admission gate applies the same idea one layer
// up, before a request touches the store at all: at most BulkPerShard
// bulk-class operations may be in flight per shard, a bounded number
// more may wait passively, and everything beyond that is REJECTED
// (StatusErrAdmission) so overload sheds instead of queueing without
// bound. Interactive requests bypass the gate entirely — keeping the
// latency-sensitive fast path free of even an uncontended semaphore
// hop is the Fissile-Locks instinct applied to admission.

// AdmissionConfig bounds in-flight bulk operations.
type AdmissionConfig struct {
	// BulkPerShard is the max concurrently executing bulk ops per
	// shard (point ops gate on their key's shard; batch, scan and
	// flush ops gate on one global slot of the same width, since they
	// touch many shards). 0 means DefaultBulkPerShard; negative
	// disables the gate.
	BulkPerShard int
	// BulkWaiters is the max bulk ops allowed to WAIT per gate beyond
	// the in-flight bound before new arrivals are rejected. 0 means
	// 4 × BulkPerShard; negative means no waiting at all (reject the
	// moment the in-flight bound is hit). The bound is enforced
	// against a racy read of the waiter count, so it is approximate
	// under heavy concurrent arrival — a shed-load heuristic, not a
	// hard rail (the in-flight bound IS hard).
	BulkWaiters int
}

// DefaultBulkPerShard is the default per-shard bulk in-flight bound.
// Small on purpose: a shard serves one holder at a time, so a handful
// of concurrent bulk entrants saturate it.
const DefaultBulkPerShard = 4

// globalGate keys the gate shared by multi-shard ops.
const globalGate = -1

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.BulkPerShard == 0 {
		c.BulkPerShard = DefaultBulkPerShard
	}
	if c.BulkWaiters == 0 && c.BulkPerShard > 0 {
		c.BulkWaiters = 4 * c.BulkPerShard
	}
	return c
}

// gate is one shard's bulk admission state: a token semaphore (channel
// capacity = in-flight bound) plus a waiter counter.
type gate struct {
	tokens  chan struct{}
	waiters atomic.Int64
}

// admission is the server-wide gate set, one gate per shard id plus
// the global gate. Gates are created lazily (resharding grows the id
// space at runtime).
type admission struct {
	limit     int
	waiterCap int
	mu        sync.Mutex
	gates     map[int]*gate
	rejected  atomic.Uint64
	waited    atomic.Uint64
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	if cfg.BulkPerShard < 0 {
		return nil // gate disabled
	}
	return &admission{
		limit:     cfg.BulkPerShard,
		waiterCap: cfg.BulkWaiters,
		gates:     make(map[int]*gate),
	}
}

func (a *admission) gateFor(shard int) *gate {
	a.mu.Lock()
	g := a.gates[shard]
	if g == nil {
		g = &gate{tokens: make(chan struct{}, a.limit)}
		a.gates[shard] = g
	}
	a.mu.Unlock()
	return g
}

// enter admits one bulk op on shard (globalGate for multi-shard ops):
// immediately when an in-flight slot is free, after a passive wait
// when the waiter bound allows, not at all otherwise. The returned
// gate must be released via exit iff admitted.
func (a *admission) enter(shard int) (*gate, bool) {
	g := a.gateFor(shard)
	select {
	case g.tokens <- struct{}{}:
		return g, true
	default:
	}
	if g.waiters.Load() >= int64(a.waiterCap) {
		a.rejected.Add(1)
		return nil, false
	}
	g.waiters.Add(1)
	a.waited.Add(1)
	g.tokens <- struct{}{}
	g.waiters.Add(-1)
	return g, true
}

// exit releases an admitted op's slot.
func (a *admission) exit(g *gate) { <-g.tokens }

// AdmissionStats is a snapshot of the gate set.
type AdmissionStats struct {
	// InFlight and Waiting are the current bulk ops holding slots and
	// blocked on slots, summed across gates (the queue-depth signal).
	InFlight, Waiting int64
	// Waited counts admissions that had to block first; Rejected
	// counts arrivals shed with StatusErrAdmission.
	Waited, Rejected uint64
}

func (a *admission) stats() AdmissionStats {
	st := AdmissionStats{
		Waited:   a.waited.Load(),
		Rejected: a.rejected.Load(),
	}
	a.mu.Lock()
	for _, g := range a.gates {
		st.InFlight += int64(len(g.tokens))
		st.Waiting += g.waiters.Load()
	}
	a.mu.Unlock()
	return st
}
