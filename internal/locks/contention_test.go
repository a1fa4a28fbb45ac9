package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// tryFactories is the base comparison set whose TryAcquire is a real
// try (success iff the lock was free), so the Contended counter
// arithmetic below is exact. Biased sits outside this set — its
// foreign-try semantics are pinned separately by
// TestContentionCountsBiasedForeignTry.
func tryFactories() []struct {
	name string
	f    Factory
} {
	return []struct {
		name string
		f    Factory
	}{
		{"pthread", FactoryPthread()},
		{"sync-mutex", FactorySyncMutex()},
		{"ticket", FactoryTicket()},
		{"mcs", FactoryMCS()},
		{"tas", FactoryTAS(core.Big, 0)},
		{"proportional", FactoryProportional(2)},
		{"asl", FactoryASL()},
		{"asl-blocking", FactoryASLBlocking()},
	}
}

// TestContentionCountsFreeAndHeld checks the counter semantics on
// every lock family: an acquire of a free lock is an uncontended
// attempt, a failed try on a held lock is a contended attempt, and a
// blocking acquire that had to wait is a contended attempt.
func TestContentionCountsFreeAndHeld(t *testing.T) {
	for _, tf := range tryFactories() {
		t.Run(tf.name, func(t *testing.T) {
			c := WithContention(tf.f())
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			other := core.NewWorker(core.WorkerConfig{Class: core.Little})

			c.Acquire(w)
			if s := c.Stats(); s.Attempts != 1 || s.Contended != 0 {
				t.Fatalf("after free Acquire: %+v, want 1 attempt, 0 contended", s)
			}
			if c.TryAcquire(other) {
				t.Fatal("TryAcquire succeeded while held")
			}
			if s := c.Stats(); s.Attempts != 2 || s.Contended != 1 {
				t.Fatalf("after failed try: %+v, want 2 attempts, 1 contended", s)
			}

			// A blocking acquire that finds the lock held must count
			// contended exactly once, then proceed when released.
			acquired := make(chan struct{})
			go func() {
				c.Acquire(other)
				close(acquired)
			}()
			// Wait until the waiter has registered its contended attempt.
			for {
				if s := c.Stats(); s.Contended >= 2 {
					break
				}
				runtime.Gosched()
			}
			c.Release(w)
			<-acquired
			c.Release(other)
			if s := c.Stats(); s.Attempts != 3 || s.Contended != 2 {
				t.Fatalf("after blocked Acquire: %+v, want 3 attempts, 2 contended", s)
			}

			// Uncontended again once free.
			if !c.TryAcquire(w) {
				t.Fatal("TryAcquire on a free lock failed")
			}
			c.Release(w)
			if s := c.Stats(); s.Attempts != 4 || s.Contended != 2 {
				t.Fatalf("after free try: %+v, want 4 attempts, 2 contended", s)
			}
		})
	}
}

// TestContentionMutualExclusion re-runs the try/acquire mixed-worker
// hammer through the Contended wrapper on every family: counting must
// not break mutual exclusion, attempts must cover every entry, and
// contended must never exceed attempts. Run with -race.
func TestContentionMutualExclusion(t *testing.T) {
	const (
		workers = 8
		rounds  = 1500
	)
	for _, tf := range tryFactories() {
		t.Run(tf.name, func(t *testing.T) {
			c := WithContention(tf.f())
			var counter int
			var tries atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					class := core.Big
					if i%2 == 1 {
						class = core.Little
					}
					w := core.NewWorker(core.WorkerConfig{Class: class})
					for r := 0; r < rounds; r++ {
						if i%2 == 0 {
							for !c.TryAcquire(w) {
								tries.Add(1)
								runtime.Gosched()
							}
							tries.Add(1)
						} else {
							c.Acquire(w)
						}
						counter++
						c.Release(w)
					}
				}(i)
			}
			wg.Wait()
			if counter != workers*rounds {
				t.Fatalf("lost updates: counter = %d, want %d", counter, workers*rounds)
			}
			s := c.Stats()
			wantAttempts := tries.Load() + uint64(workers/2*rounds)
			if s.Attempts != wantAttempts {
				t.Fatalf("Attempts = %d, want %d (every entry counted once)", s.Attempts, wantAttempts)
			}
			if s.Contended > s.Attempts {
				t.Fatalf("Contended %d exceeds Attempts %d", s.Contended, s.Attempts)
			}
			if f := s.ContendedFrac(); f < 0 || f > 1 {
				t.Fatalf("ContendedFrac = %v out of [0,1]", f)
			}
		})
	}
}

// TestContentionCountsBiasedForeignTry closes the seed-carried gap:
// the Contended counters must also cover the wrapped-TryAcquire-
// failure path where the inner lock is FREE but refuses the try —
// exactly what a live foreign bias does (the probe is absorbed). This
// is Biased's revoke-on-contention signal into the shardedkv skew
// detector: a biased shard under real foreign traffic accumulates
// contended attempts even though no one is queued, so the detector
// sees it without any special-casing. Pinned by test, not convention.
func TestContentionCountsBiasedForeignTry(t *testing.T) {
	owner := core.NewWorker(core.WorkerConfig{Class: core.Big})
	foreign := core.NewWorker(core.WorkerConfig{Class: core.Little})

	b := NewBiased(FactorySyncMutex()(), BiasedConfig{AdoptWindow: 64, RevokeTries: 100})
	c := WithContention(b)

	// One solo adoption window of slow takes adopts the owner.
	const window = 64
	for i := 0; i < window; i++ {
		c.Acquire(owner)
		c.Release(owner)
	}
	if b.Owner() != owner {
		t.Fatal("owner not adopted at the window's last release")
	}
	if s := c.Stats(); s.Attempts != window || s.Contended != 0 {
		t.Fatalf("after the adoption window: %+v, want %d attempts, 0 contended", s, window)
	}

	// The bias is live and the lock is FREE; a foreign TryAcquire
	// through Contended still fails (absorbed probe) and must count
	// as a contended attempt — the skew-detector feed.
	if c.TryAcquire(foreign) {
		t.Fatal("foreign TryAcquire succeeded against a live bias under the revoke budget")
	}
	if s := c.Stats(); s.Attempts != window+1 || s.Contended != 1 {
		t.Fatalf("after absorbed foreign try: %+v, want %d attempts, 1 contended", s, window+1)
	}
	if b.Owner() != owner {
		t.Fatal("absorbed probe must not revoke the bias")
	}

	// A foreign blocking Acquire routes through the same failed
	// opening try (contended++), then revokes on the slow path.
	c.Acquire(foreign)
	if s := c.Stats(); s.Attempts != window+2 || s.Contended != 2 {
		t.Fatalf("after foreign blocking Acquire: %+v, want %d attempts, 2 contended", s, window+2)
	}
	if b.Owner() != nil {
		t.Fatal("foreign blocking Acquire must revoke the bias")
	}
	c.Release(foreign)

	if bs := b.Stats(); bs.Adoptions != 1 || bs.Revocations != 1 || bs.ForeignTries != 2 {
		t.Fatalf("bias stats %+v, want 1 adoption, 1 revocation, 2 foreign tries", bs)
	}
}

// TestFactoryContended checks the factory wrapper yields independent
// counters per lock.
func TestFactoryContended(t *testing.T) {
	f := FactoryContended(FactorySyncMutex())
	l1, l2 := f(), f()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	l1.Acquire(w)
	l1.Release(w)
	c1, ok1 := l1.(*Contended)
	c2, ok2 := l2.(*Contended)
	if !ok1 || !ok2 {
		t.Fatal("FactoryContended must build *Contended locks")
	}
	if s := c1.Stats(); s.Attempts != 1 {
		t.Fatalf("l1 attempts = %d, want 1", s.Attempts)
	}
	if s := c2.Stats(); s.Attempts != 0 {
		t.Fatalf("l2 attempts = %d, want 0 (counters must be per lock)", s.Attempts)
	}
}
