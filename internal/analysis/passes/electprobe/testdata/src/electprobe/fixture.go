// Fixture for the electprobe pass: stand-ins for locks.WLock and
// locks.Contended, and the two violation shapes (bare probe outside
// the lock machinery; probe through the counting Contended wrapper).
package electprobe

type Worker struct{}

type WLock struct{ held bool }

func (l *WLock) Acquire(w *Worker)         { l.held = true }
func (l *WLock) TryAcquire(w *Worker) bool { return !l.held }

// Contended mirrors locks.Contended: a wrapper whose TryAcquire counts
// a failed probe as contention.
type Contended struct {
	inner    WLock
	attempts int
}

func (c *Contended) TryAcquire(w *Worker) bool {
	c.attempts++
	return c.inner.TryAcquire(w)
}

func (c *Contended) Acquire(w *Worker) {
	c.attempts++
	if c.inner.TryAcquire(w) {
		return
	}
	c.inner.Acquire(w)
}

type shard struct {
	lock WLock
	cont *Contended
}

// --- violations ---

func badBareProbe(sh *shard, w *Worker) bool {
	return sh.lock.TryAcquire(w) // want `bare TryAcquire outside the lock machinery`
}

func badContendedProbe(c *Contended, w *Worker) bool {
	return c.TryAcquire(w) // want `TryAcquire on a locks.Contended counts a failed probe as contention`
}

// --- conforming ---

func okBlockingAcquire(sh *shard, w *Worker) {
	sh.lock.Acquire(w)
}
