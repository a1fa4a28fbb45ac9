package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Adversarial tests for the Biased wrapper, targeting exactly the
// transitions that make biased locking easy to get wrong: the epoch
// handshake, revocation racing a release, a parked owner mid-CS, and
// TryAcquire in every bias state. The cross-family exclusion torture
// (harness_test.go) covers Biased too; these tests drive the protocol
// edges deterministically.

func biasedPair() (*Biased, *core.Worker, *core.Worker) {
	b := NewBiased(FactorySyncMutex()(), BiasedConfig{AdoptWindow: 64, RevokeTries: 2})
	owner := core.NewWorker(core.WorkerConfig{Class: core.Big})
	other := core.NewWorker(core.WorkerConfig{Class: core.Little})
	return b, owner, other
}

// adopt installs owner as the bias owner through the windowed take
// counter: solo slow takes until a window closes in owner's favour
// (at most two windows, the first possibly shared with earlier takers).
func adopt(t *testing.T, b *Biased, owner *core.Worker) {
	t.Helper()
	for i := uint32(0); i < 2*b.adoptWindow() && b.Owner() != owner; i++ {
		b.Acquire(owner)
		b.Release(owner)
	}
	if b.Owner() != owner {
		t.Fatal("adoption did not take")
	}
}

// TestBiasedHandshakeInterleaving is the deterministic epoch-handshake
// test: with the owner inside its fast-path critical section, a
// revoker's blocking acquire must wait the grace period out (no two
// owners), and the owner's release must let it through (no lost
// wakeup). Occupancy is asserted directly.
func TestBiasedHandshakeInterleaving(t *testing.T) {
	b, owner, rev := biasedPair()
	adopt(t, b, owner)

	b.Acquire(owner) // fast path: plain atomics on the cookie
	if s := b.Stats(); s.FastAcquires != 1 {
		t.Fatalf("FastAcquires = %d, want 1", s.FastAcquires)
	}

	var inside atomic.Int32
	inside.Store(1)
	entered := make(chan struct{})
	go func() {
		b.Acquire(rev) // must run the revocation handshake
		if inside.Load() != 0 {
			t.Error("revoker entered while the owner was inside its CS")
		}
		close(entered)
	}()

	select {
	case <-entered:
		t.Fatal("revoker acquired during the owner's critical section")
	case <-time.After(30 * time.Millisecond):
	}

	inside.Store(0)
	b.Release(owner) // fast release: epoch parity flips to even
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("lost wakeup: revoker never got through the handshake")
	}
	b.Release(rev)

	s := b.Stats()
	if s.Revocations != 1 {
		t.Fatalf("Revocations = %d, want 1", s.Revocations)
	}
	// The bias is gone: the ex-owner now pays the slow path.
	b.Acquire(owner)
	b.Release(owner)
	if s2 := b.Stats(); s2.FastAcquires != s.FastAcquires || s2.SlowAcquires != s.SlowAcquires+1 {
		t.Fatalf("ex-owner did not fall to the slow path: %+v -> %+v", s, s2)
	}
}

// TestBiasedParkedOwnerMidCS parks the owner (a long sleep) inside its
// fast-path CS while another worker runs the explicit Revoke
// handshake: Revoke must not return until the owner provably left.
func TestBiasedParkedOwnerMidCS(t *testing.T) {
	b, owner, rev := biasedPair()
	adopt(t, b, owner)

	b.Acquire(owner)
	var released atomic.Bool
	revoked := make(chan struct{})
	go func() {
		b.Revoke(rev)
		if !released.Load() {
			t.Error("Revoke returned while the parked owner still held the lock")
		}
		close(revoked)
	}()

	time.Sleep(50 * time.Millisecond) // the owner is parked mid-CS
	select {
	case <-revoked:
		t.Fatal("Revoke completed during the owner's critical section")
	default:
	}
	released.Store(true)
	b.Release(owner)
	select {
	case <-revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("Revoke hung after the owner released")
	}
	if b.Owner() != nil {
		t.Fatal("bias must be gone after Revoke")
	}
}

// TestBiasedTryAcquireStates pins TryAcquire in every bias state.
func TestBiasedTryAcquireStates(t *testing.T) {
	b, owner, other := biasedPair() // RevokeTries: 2

	// Unbiased: a try is a plain try.
	if !b.TryAcquire(other) {
		t.Fatal("unbiased: try on a free lock must win")
	}
	if b.TryAcquire(owner) {
		t.Fatal("unbiased: try on a held lock must fail")
	}
	b.Release(other)

	adopt(t, b, owner)

	// Biased, owner outside its CS: the owner's try is the fast path.
	if !b.TryAcquire(owner) {
		t.Fatal("owner try must win via the fast path")
	}

	// Biased, owner INSIDE its CS: a foreign try must fail in both
	// regimes — absorbed under the revoke budget, and blocked by the
	// odd epoch parity once it is allowed to revoke (a try must never
	// wait the grace period out).
	if b.TryAcquire(other) {
		t.Fatal("foreign try #1 must be absorbed")
	}
	if b.Owner() != owner {
		t.Fatal("absorbed try must not revoke")
	}
	if b.TryAcquire(other) {
		t.Fatal("foreign try #2 must fail: owner is mid-CS, handshake may not block")
	}
	b.Release(owner)

	// The cookie is now dying (revoked mid-CS) with the owner
	// outside: a foreign try completes the teardown and wins.
	if !b.TryAcquire(other) {
		t.Fatal("foreign try on a dying bias with the owner outside must win")
	}
	if b.Owner() != nil {
		t.Fatal("cookie must be unlinked after the claiming try")
	}
	b.Release(other)

	// The ex-owner's next acquire rolls back to the slow path.
	before := b.Stats()
	b.Acquire(owner)
	b.Release(owner)
	if after := b.Stats(); after.SlowAcquires != before.SlowAcquires+1 {
		t.Fatal("ex-owner must take the slow path after revocation")
	}
}

// TestBiasedRevocationRacesRelease races the owner's tight fast
// acquire/release loop against concurrent Revoke calls and blocking
// acquires, with the owner's solo slow takes re-adopting it through
// the windowed counter — the bias flaps while ops are in flight. Accounting stays exact and -race stays quiet.
func TestBiasedRevocationRacesRelease(t *testing.T) {
	b, owner, rev := biasedPair()
	iters := 20000
	revokes := 300
	if testing.Short() {
		iters, revokes = 4000, 60
	}

	var counter int64 // protected by b
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			b.Acquire(owner)
			counter++
			b.Release(owner)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < revokes; i++ {
			b.Revoke(rev)
			b.Acquire(rev)
			counter++
			b.Release(rev)
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if want := int64(iters + revokes); counter != want {
		t.Fatalf("lost updates: counter = %d, want %d", counter, want)
	}
	s := b.Stats()
	if s.FastAcquires+s.SlowAcquires != uint64(iters+revokes) {
		t.Fatalf("acquire accounting off: fast %d + slow %d != %d",
			s.FastAcquires, s.SlowAcquires, iters+revokes)
	}
	if live := s.Adoptions - s.Revocations; live > 1 {
		t.Fatalf("cookie leak: %d adoptions vs %d revocations", s.Adoptions, s.Revocations)
	}
}

// TestBiasedFlappingStorm cycles adopt → storm → revoke many times
// with class-mixed foreign workers on both the try and blocking
// paths. Exact accounting across every flap, and the adoption/
// revocation ledger must balance.
func TestBiasedFlappingStorm(t *testing.T) {
	b := NewBiased(FactorySyncMutex()(), BiasedConfig{AdoptWindow: 8, RevokeTries: 2})
	rounds, burst, stormers := 40, 200, 3
	if testing.Short() {
		rounds, burst = 10, 80
	}

	var counter int64 // protected by b
	var inside, overlaps atomic.Int32
	enter := func(w *core.Worker, try bool) {
		if try {
			for !b.TryAcquire(w) {
				runtime.Gosched()
			}
		} else {
			b.Acquire(w)
		}
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		counter++
		inside.Add(-1)
		b.Release(w)
	}

	stop := make(chan struct{})
	var stormed [8]int64
	var wg sync.WaitGroup
	for s := 0; s < stormers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: core.Class(s % 2)})
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					stormed[s] = n
					return
				default:
				}
				enter(w, s%2 == 0)
				runtime.Gosched()
			}
		}(s)
	}

	owner := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			enter(owner, false)
		}
	}
	close(stop)
	wg.Wait()

	want := int64(rounds * burst)
	for s := 0; s < stormers; s++ {
		want += stormed[s]
	}
	if counter != want {
		t.Fatalf("lost updates: counter = %d, want %d", counter, want)
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d overlapping critical sections", overlaps.Load())
	}
	s := b.Stats()
	if s.Adoptions == 0 {
		t.Fatal("storm never adopted a bias")
	}
	if live := s.Adoptions - s.Revocations; live > 1 {
		t.Fatalf("cookie leak: %d adoptions vs %d revocations", s.Adoptions, s.Revocations)
	}
}

// TestBiasedFactoryAndInner pins the composition surface the store
// uses: FactoryBiased builds independent *Biased locks and Inner
// exposes the wrapped lock.
func TestBiasedFactoryAndInner(t *testing.T) {
	f := FactoryBiased(FactoryMCS(), BiasedConfig{})
	l1, l2 := f(), f()
	b1, ok1 := l1.(*Biased)
	b2, ok2 := l2.(*Biased)
	if !ok1 || !ok2 {
		t.Fatal("FactoryBiased must build *Biased locks")
	}
	if b1 == b2 {
		t.Fatal("factory must mint independent locks")
	}
	if b1.Inner() == nil || b2.Inner() == nil {
		t.Fatal("Inner must expose the wrapped lock")
	}
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	b1.Acquire(w)
	b1.Release(w)
	if s := b1.Stats(); s.SlowAcquires != 1 {
		t.Fatalf("stats %+v, want 1 slow acquire", s)
	}
	if s := b2.Stats(); s.SlowAcquires != 0 {
		t.Fatal("stats must be per lock")
	}
}
