package locks_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
)

// ExampleASLMutex shows the paper's usage model (Fig. 6): classify the
// worker, annotate the latency-critical region as an epoch, lock as
// usual.
func ExampleASLMutex() {
	mu := locks.NewASLMutexDefault()
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})

	counter := 0
	w.EpochStart(5) // epoch id 5, as in the paper's example
	mu.Lock(w)
	counter++
	mu.Unlock(w)
	latency := w.EpochEnd(5, int64(time.Millisecond)) // SLO: 1 ms

	fmt.Println(counter, latency >= 0)
	// Output: 1 true
}

// ExampleReorderable demonstrates the two acquisition paths of the
// reorderable lock (Algorithm 1).
func ExampleReorderable() {
	r := locks.NewReorderable(new(locks.MCS))

	// Big cores enqueue immediately.
	r.LockImmediately()
	r.Unlock()

	// Little cores stand by for up to a reorder window; on a free lock
	// they acquire instantly.
	r.LockReorder(int64(100 * time.Microsecond))
	r.Unlock()

	fmt.Println(r.IsFree())
	// Output: true
}

// ExampleASLMutex_bind shows the sync.Locker view used for APIs such
// as sync.Cond.
func ExampleASLMutex_bind() {
	mu := locks.NewASLMutexDefault()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	l := mu.Bind(w) // plain sync.Locker
	l.Lock()
	l.Unlock()

	fmt.Println("ok")
	// Output: ok
}
