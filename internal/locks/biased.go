package locks

import (
	"sync/atomic"

	"repro/internal/core"
)

// Biased wraps any WLock with single-owner bias in the spirit of the
// paper's asymmetric locks (and of JVM biased locking / Fissile
// Locks): once one worker is observed taking almost every acquisition,
// it is adopted as the owner and from then on acquires and releases
// with plain atomic loads and stores on a private cookie — no
// contended RMW, no queue traffic. Everyone else pays: a non-owner
// first acquires the wrapped lock, then runs an epoch/handshake grace
// period (the Go stand-in for an asymmetric membarrier) that waits
// until the owner is provably outside its critical section before the
// bias is torn down and the lock reverts to the wrapped protocol.
//
// The exclusion argument is the classic store-buffering (Dekker)
// pattern over Go's sequentially consistent sync/atomic: the owner
// publishes "inside" (epoch odd) and then checks revoked; the revoker
// publishes revoked and then checks the epoch. SC forbids both sides
// reading the other's old value, so either the owner sees the
// revocation and rolls back to the slow path, or the revoker sees the
// owner inside and waits the grace period out.
//
// The cookie is one-shot: a revoked bias never resurrects; a new
// adoption mints a fresh cookie. Adoption happens only in the
// slow-path release while the wrapped lock is held, fed by the
// windowed take counter.
type Biased struct {
	inner WLock
	owner atomic.Pointer[bownerRec]
	cfg   BiasedConfig

	// Adoption window state. Guarded by the inner lock: only touched
	// in the slow-path release, which always holds it.
	cand  *core.Worker
	hits  uint32
	total uint32

	adoptions    atomic.Uint64
	revocations  atomic.Uint64
	fastAcquires atomic.Uint64
	slowAcquires atomic.Uint64
	foreignTries atomic.Uint64
}

// bownerRec is one bias cookie. epoch is written ONLY by the owner
// (load-then-store, never an RMW): even = outside the critical
// section, odd = inside. revoked is sticky — once set the cookie is
// dying and the owner's next fast-path attempt rolls back to the slow
// path. tries counts foreign TryAcquire successes absorbed against
// this cookie before one of them is allowed to revoke it.
type bownerRec struct {
	w       *core.Worker
	epoch   atomic.Uint64
	revoked atomic.Uint32
	tries   atomic.Uint32
}

// BiasedConfig tunes adoption and revocation. The zero value picks
// the defaults noted per field.
type BiasedConfig struct {
	// AdoptWindow is how many slow-path releases form one adoption
	// window (default 64). At the window boundary the dominant taker
	// is adopted if it cleared AdoptPercent.
	AdoptWindow uint32
	// AdoptPercent is the minimum take share, in percent, a single
	// worker must reach within a window to be adopted (default 90 —
	// the ROADMAP's ">90% of lock takes" signal).
	AdoptPercent uint32
	// RevokeTries is how many successful-but-foreign TryAcquires are
	// absorbed (fail without revoking) before one revokes the bias
	// (default 8). This keeps opportunistic TryAcquire probes from
	// tearing down a healthy bias, while guaranteeing probes alone
	// still reclaim an abandoned one.
	RevokeTries uint32
}

// BiasStats is a point-in-time counter snapshot.
type BiasStats struct {
	// Adoptions counts cookies minted; Revocations counts cookies
	// torn down (Adoptions - Revocations ∈ {0, 1} is the live bias).
	Adoptions   uint64
	Revocations uint64
	// FastAcquires are owner acquisitions that touched only the
	// cookie; SlowAcquires went through the wrapped lock. Their sum
	// is every successful acquisition.
	FastAcquires uint64
	SlowAcquires uint64
	// ForeignTries counts TryAcquire attempts that met a live foreign
	// bias (whether absorbed or revoking).
	ForeignTries uint64
}

// Add accumulates o into s (shard aggregation).
func (s *BiasStats) Add(o BiasStats) {
	s.Adoptions += o.Adoptions
	s.Revocations += o.Revocations
	s.FastAcquires += o.FastAcquires
	s.SlowAcquires += o.SlowAcquires
	s.ForeignTries += o.ForeignTries
}

// NewBiased wraps inner with bias; cfg zero value = defaults.
func NewBiased(inner WLock, cfg BiasedConfig) *Biased {
	return &Biased{inner: inner, cfg: cfg}
}

// FactoryBiased composes bias into a lock factory, for use in the
// shardedkv factory/Contended/ClassProbe stack (the store wraps the
// result with Contended, so real waits against a biased shard feed
// the skew detector).
func FactoryBiased(f Factory, cfg BiasedConfig) Factory {
	return func() WLock { return NewBiased(f(), cfg) }
}

// Inner exposes the wrapped lock.
func (b *Biased) Inner() WLock { return b.inner }

func (b *Biased) adoptWindow() uint32 {
	if b.cfg.AdoptWindow == 0 {
		return 64
	}
	return b.cfg.AdoptWindow
}

func (b *Biased) adoptPercent() uint32 {
	if b.cfg.AdoptPercent == 0 {
		return 90
	}
	return b.cfg.AdoptPercent
}

func (b *Biased) revokeTries() uint32 {
	if b.cfg.RevokeTries == 0 {
		return 8
	}
	return b.cfg.RevokeTries
}

// Stats snapshots the counters.
func (b *Biased) Stats() BiasStats {
	return BiasStats{
		Adoptions:    b.adoptions.Load(),
		Revocations:  b.revocations.Load(),
		FastAcquires: b.fastAcquires.Load(),
		SlowAcquires: b.slowAcquires.Load(),
		ForeignTries: b.foreignTries.Load(),
	}
}

// Owner reports the live bias owner, or nil when unbiased or the
// current cookie is already dying.
func (b *Biased) Owner() *core.Worker {
	if rec := b.owner.Load(); rec != nil && rec.revoked.Load() == 0 {
		return rec.w
	}
	return nil
}

// Acquire takes the lock. The owner's fast path is two plain stores
// and two loads on its cookie; everyone else (and a revoked owner)
// goes through the wrapped lock and tears any live bias down first.
func (b *Biased) Acquire(w *core.Worker) {
	if rec := b.owner.Load(); rec != nil && rec.w == w {
		e := rec.epoch.Load()
		rec.epoch.Store(e + 1) // odd: inside (owner-only write, no RMW)
		if rec.revoked.Load() == 0 {
			b.fastAcquires.Add(1)
			return
		}
		rec.epoch.Store(e + 2) // roll back outside before queueing
	}
	b.inner.Acquire(w)
	b.clearBias()
	b.slowAcquires.Add(1)
}

// clearBias revokes and unlinks any live cookie. Caller holds inner,
// so no new cookie can be adopted underneath the loop.
func (b *Biased) clearBias() {
	for {
		rec := b.owner.Load()
		if rec == nil {
			return
		}
		rec.revoked.Store(1)
		waitOutside(rec)
		if b.owner.CompareAndSwap(rec, nil) {
			b.revocations.Add(1)
		}
	}
}

// waitOutside is the grace period: spin until the cookie's epoch
// parity shows the owner outside its critical section. Once revoked
// is set the owner can never re-enter the fast path, so one observed
// even parity is terminal.
func waitOutside(rec *bownerRec) {
	var s spinner
	for rec.epoch.Load()&1 == 1 {
		s.spin()
	}
}

// Release returns the lock. Dispatch is exact: a live cookie for w at
// odd parity means w holds via the fast path (a worker that fell to
// the slow path always rolled its cookie back to even, or cleared it).
func (b *Biased) Release(w *core.Worker) {
	if rec := b.owner.Load(); rec != nil && rec.w == w && rec.epoch.Load()&1 == 1 {
		rec.epoch.Store(rec.epoch.Load() + 1) // even: outside
		return
	}
	b.slowRelease(w)
}

// slowRelease runs the adoption bookkeeping (we hold inner) and then
// releases the wrapped lock. Installing the cookie before the release
// makes adoption atomic: any worker already queued on inner revokes
// it after acquiring, via the normal handshake.
func (b *Biased) slowRelease(w *core.Worker) {
	var target *core.Worker
	if b.total == 0 {
		b.cand, b.hits = w, 0
	}
	b.total++
	if b.cand == w {
		b.hits++
	}
	if b.total >= b.adoptWindow() {
		if b.cand != nil && b.hits*100 >= b.total*b.adoptPercent() {
			target = b.cand
		}
		b.cand, b.hits, b.total = nil, 0, 0
	}
	if target != nil && b.owner.Load() == nil {
		b.owner.Store(&bownerRec{w: target})
		b.adoptions.Add(1)
	}
	b.inner.Release(w)
}

// TryAcquire is non-blocking in every state. The owner uses the fast
// path. A foreign try may succeed on the wrapped lock even while the
// bias is live (the inner lock is free then — the cookie IS the
// lock); the first RevokeTries-1 such successes are absorbed (inner
// released, false returned) so opportunistic probes don't kill a
// healthy bias, after which one try revokes — but only if the owner is
// provably outside its CS, since a try must not block on the grace
// period.
func (b *Biased) TryAcquire(w *core.Worker) bool {
	if rec := b.owner.Load(); rec != nil && rec.w == w {
		e := rec.epoch.Load()
		rec.epoch.Store(e + 1)
		if rec.revoked.Load() == 0 {
			b.fastAcquires.Add(1)
			return true
		}
		rec.epoch.Store(e + 2)
	}
	if !b.inner.TryAcquire(w) {
		return false
	}
	rec := b.owner.Load()
	if rec == nil {
		b.slowAcquires.Add(1)
		return true
	}
	if rec.w != w && rec.revoked.Load() == 0 {
		b.foreignTries.Add(1)
		if rec.tries.Add(1) < b.revokeTries() {
			b.inner.Release(w)
			return false
		}
	}
	rec.revoked.Store(1)
	if rec.epoch.Load()&1 == 1 {
		// Owner inside its CS: the handshake would block. Give up the
		// inner lock; the cookie stays dying and the next blocking
		// acquire (or the owner's own rollback) finishes the teardown.
		b.inner.Release(w)
		return false
	}
	if b.owner.CompareAndSwap(rec, nil) {
		b.revocations.Add(1)
	}
	b.slowAcquires.Add(1)
	return true
}

// Revoke tears down any live bias without taking the lock: it marks
// the cookie revoked, waits the epoch/handshake grace period out, and
// unlinks the cookie. The wait is unbounded if the owner is parked
// mid-CS, which makes Revoke an fsync-class operation: never call it
// while holding a shard lock (the lockheldcall analyzer enforces
// this, same as wal.Log.Commit).
func (b *Biased) Revoke(w *core.Worker) {
	rec := b.owner.Load()
	if rec == nil {
		return
	}
	rec.revoked.Store(1)
	waitOutside(rec)
	if b.owner.CompareAndSwap(rec, nil) {
		b.revocations.Add(1)
	}
}
