package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The shared mutual-exclusion / TryAcquire torture checker for every
// family lives in harness_test.go; this file keeps the per-family
// policy tests (FIFO order, barging, affinity, proportional grants)
// and the plain-Locker IsFree conformance the WLock surface hides.

// full is the interface every plain lock in this package satisfies.
type full interface {
	Locker
	TryLock() bool
	IsFree() bool
}

// allLocks enumerates every plain Locker implementation.
func allLocks() map[string]func() full {
	return map[string]func() full{
		"tas":     func() full { return new(TAS) },
		"ttas":    func() full { return new(TTAS) },
		"backoff": func() full { return new(Backoff) },
		"ticket":  func() full { return new(Ticket) },
		"mcs":     func() full { return new(MCS) },
		"mcspark": func() full { return new(MCSPark) },
		"barging": func() full { return new(BargingMutex) },
		"prop":    func() full { return new(Proportional) },
		"reorder": func() full { return NewReorderable(new(MCS)) },
	}
}

// TestIsFreeConformance pins the IsFree transitions the standby
// competitors rely on: held ⇒ not free, released ⇒ free.
func TestIsFreeConformance(t *testing.T) {
	for name, mk := range allLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			if !l.IsFree() {
				t.Fatal("fresh lock must report free")
			}
			if !l.TryLock() {
				t.Fatal("TryLock on a free lock must succeed")
			}
			if l.IsFree() {
				t.Fatal("held lock must not report free")
			}
			l.Unlock()
			if !l.IsFree() {
				t.Fatal("released lock must report free")
			}
			// Usable again through the normal path.
			l.Lock()
			l.Unlock()
		})
	}
}

// TestMCSFIFOOrder verifies arrival-order handover: a goroutine that
// enqueues while the lock is held must acquire before one that
// enqueues after it.
func TestMCSFIFOOrder(t *testing.T) {
	for name, mk := range map[string]func() FIFOLock{
		"mcs":     func() FIFOLock { return new(MCS) },
		"mcspark": func() FIFOLock { return new(MCSPark) },
		"ticket":  func() FIFOLock { return new(Ticket) },
	} {
		t.Run(name, func(t *testing.T) {
			l := mk()
			l.Lock() // hold so waiters queue up

			const waiters = 6
			var order []int
			var mu sync.Mutex
			var wg sync.WaitGroup
			// Launch waiters with generous spacing so each Lock call is
			// (with overwhelming likelihood) enqueued before the next
			// goroutine starts.
			for i := 0; i < waiters; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.Lock()
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					l.Unlock()
				}()
				time.Sleep(20 * time.Millisecond)
			}
			l.Unlock()
			wg.Wait()
			for i := 1; i < len(order); i++ {
				if order[i] < order[i-1] {
					t.Fatalf("%s violated FIFO: %v", name, order)
				}
			}
		})
	}
}

func TestBargingMutexAllowsBarging(t *testing.T) {
	// Not an ordering guarantee test — just documents that a TryLock
	// (barging CAS) can succeed the instant the lock is free even with
	// sleepers present; pthread semantics.
	var m BargingMutex
	m.Lock()
	woke := make(chan struct{})
	go func() {
		m.Lock() // sleeps
		m.Unlock()
		close(woke)
	}()
	time.Sleep(10 * time.Millisecond) // let the sleeper park
	m.Unlock()
	<-woke // the sleeper must still eventually acquire (no lost wakeup)
}

func TestBargingNoLostWakeup(t *testing.T) {
	// Repeatedly create contention bursts; a lost wakeup would hang.
	var m BargingMutex
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				m.Unlock()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("lost wakeup: workers hung")
		}
	}
}

func TestTASAffinityBias(t *testing.T) {
	// With a strong big-core bias, big-class workers should win far
	// more acquisitions under contention.
	var l TAS
	l.SetAffinity(core.Big, 16)
	var bigWins, littleWins atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.LockClass(core.Big)
				bigWins.Add(1)
				l.Unlock()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.LockClass(core.Little)
				littleWins.Add(1)
				l.Unlock()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	b, lw := bigWins.Load(), littleWins.Load()
	if b < lw {
		t.Fatalf("big-biased TAS: big=%d little=%d, want big ahead", b, lw)
	}
}

func TestTASAffinityDisabled(t *testing.T) {
	var l TAS
	l.SetAffinity(core.Big, 1) // factor < 2 disables
	l.LockClass(core.Little)   // must not hang or bias-panic
	l.Unlock()
}

func TestProportionalPolicy(t *testing.T) {
	// Single-threaded policy check via the internal queues: with N=2,
	// the release order of queued waiters must be B B L B B L ...
	p := &Proportional{N: 2}
	p.Lock() // hold

	var order []core.Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(c core.Class) {
		mu.Lock()
		order = append(order, c)
		mu.Unlock()
	}
	// Enqueue 4 bigs and 4 littles (waiting while we hold the lock).
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.LockClass(core.Big)
			record(core.Big)
			time.Sleep(time.Millisecond)
			p.Unlock()
		}()
		go func() {
			defer wg.Done()
			p.LockClass(core.Little)
			record(core.Little)
			time.Sleep(time.Millisecond)
			p.Unlock()
		}()
	}
	time.Sleep(50 * time.Millisecond) // let everyone queue
	p.Unlock()
	wg.Wait()

	bigs, littles := 0, 0
	for _, c := range order {
		if c == core.Big {
			bigs++
		} else {
			littles++
		}
	}
	if bigs != 4 || littles != 4 {
		t.Fatalf("order incomplete: %v", order)
	}
	// The first three grants must contain at least two bigs (policy
	// N=2 admits a little only after two bigs).
	firstBigs := 0
	for _, c := range order[:3] {
		if c == core.Big {
			firstBigs++
		}
	}
	if firstBigs < 2 {
		t.Fatalf("proportional policy violated: %v", order)
	}
}
