// Package storefix is the fixture stand-in for internal/shardedkv:
// a Store with splitMu and shard locks, a conforming split rendezvous,
// and the two in-package violations the canonical order forbids — the
// inverted child-held-while-taking-parent acquire and a shard lock
// held while taking splitMu.
package storefix

import "locksfix"

type shard struct {
	lock  locksfix.WLock
	depth int
}

// Store stands in for the sharded store.
type Store struct {
	splitMu locksfix.WLock
	shards  []*shard
}

// tryLock stands in for a try helper: on success it returns holding
// sh.lock (ReturnsHeld in its exported summary).
func (sh *shard) tryLock(w *locksfix.Worker) bool {
	return sh.lock.TryAcquire(w)
}

// Get is the conforming sync path: one shard lock, bracketed.
func (s *Store) Get(w *locksfix.Worker, k uint64) {
	sh := s.shards[int(k)%len(s.shards)]
	sh.lock.Acquire(w)
	sh.lock.Release(w)
}

// split is the conforming rendezvous: splitMu, then the parent shard,
// then the child — the ancestor→descendant nesting is legal because
// splitMu is held.
func (s *Store) split(w *locksfix.Worker, sh *shard) {
	s.splitMu.Acquire(w)
	sh.lock.Acquire(w)
	child := s.shards[0]
	child.lock.Acquire(w)
	child.lock.Release(w)
	sh.lock.Release(w)
	s.splitMu.Release(w)
}

// splitDeferred is split with the defer idiom: the deferred Release is
// an exit effect, so splitMu is still held at the nested shard
// acquires — the same-class nesting stays under the rendezvous and the
// function must stay clean. (A pass that applied the defer's release
// immediately would flag the nesting as outside splitMu.)
func (s *Store) splitDeferred(w *locksfix.Worker, sh *shard) {
	s.splitMu.Acquire(w)
	defer s.splitMu.Release(w)
	sh.lock.Acquire(w)
	child := s.shards[0]
	child.lock.Acquire(w)
	child.lock.Release(w)
	sh.lock.Release(w)
}

// adopt inverts the rendezvous: the child's lock is taken first, then
// the parent's, with splitMu never held.
func (s *Store) adopt(w *locksfix.Worker, parent, child *shard) {
	child.lock.Acquire(w)
	parent.lock.Acquire(w) // want `shard lock acquired in adopt while a shard lock is already held outside the splitMu rendezvous`
	parent.lock.Release(w)
	child.lock.Release(w)
}

// splitFromShard takes splitMu while holding a shard lock — backwards
// through the rank table.
func (s *Store) splitFromShard(w *locksfix.Worker, sh *shard) {
	sh.lock.Acquire(w)
	s.splitMu.Acquire(w) // want `lock-order inversion in splitFromShard: acquiring storefix\.Store\.splitMu \(splitMu\) while holding storefix\.shard\.lock \(shard lock\)`
	s.splitMu.Release(w)
	sh.lock.Release(w)
}

// maybeSplit exercises the try-branch refinement through a callee
// summary: when tryLock fails nothing is held, so taking splitMu on
// that path is clean — a flow-insensitive pass would flag it.
func (s *Store) maybeSplit(w *locksfix.Worker, sh *shard) {
	if !sh.tryLock(w) {
		s.splitMu.Acquire(w)
		s.splitMu.Release(w)
		return
	}
	sh.lock.Release(w)
}

// revokeBeforeSplit is the conforming biased-split shape: the bias is
// revoked while nothing is held (Revoke's summary acquires and releases
// the wrapper's inner class), then the rendezvous runs as usual.
func (s *Store) revokeBeforeSplit(w *locksfix.Worker, b *locksfix.Biased, sh *shard) {
	b.Revoke(w)
	s.splitMu.Acquire(w)
	sh.lock.Acquire(w)
	sh.lock.Release(w)
	s.splitMu.Release(w)
}

// splitUnderBias takes splitMu while holding the biased wrapper. The
// held-set tracks the wrapper's delegated class — the diagnostic names
// locksfix.Biased.inner (engine-internal rank), not the wrapper call
// site — so the inversion against rank-0 splitMu is caught through one
// level of delegation.
func (s *Store) splitUnderBias(w *locksfix.Worker, b *locksfix.Biased) {
	b.Acquire(w)
	s.splitMu.Acquire(w) // want `lock-order inversion in splitUnderBias: acquiring storefix\.Store\.splitMu \(splitMu\) while holding locksfix\.Biased\.inner \(engine-internal\)`
	s.splitMu.Release(w)
	b.Release(w)
}
