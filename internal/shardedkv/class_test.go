package shardedkv

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
)

// probeStore builds a one-shard store whose lock is wrapped with a
// ClassProbe, returning both. One shard means every op hits the probe.
func probeStore(t *testing.T) (*Store, *locks.ClassProbe) {
	t.Helper()
	var mu sync.Mutex
	var probes []*locks.ClassProbe
	st := New(Config{
		Shards: 1,
		NewLock: func() locks.WLock {
			p := locks.WithClassProbe(locks.FactoryASL()())
			mu.Lock()
			probes = append(probes, p)
			mu.Unlock()
			return p
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(probes) != 1 {
		t.Fatalf("expected 1 probe-wrapped lock, got %d", len(probes))
	}
	return st, probes[0]
}

// TestClassedStoreOverridesLockClass asserts the core serving-boundary
// property: an op issued through As(c) is observed at the shard lock
// as class c, whatever the worker's base class.
func TestClassedStoreOverridesLockClass(t *testing.T) {
	st, probe := probeStore(t)
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	st.As(core.Little).Put(w, 1, []byte("a"))
	st.As(core.Little).Get(w, 1)
	st.As(core.Little).Delete(w, 1)
	after := probe.Stats()
	if after.LittleAcquires != 3 {
		t.Fatalf("little-class view: little acquires = %d, want 3 (stats %+v)", after.LittleAcquires, after)
	}
	if after.BigAcquires != 0 {
		t.Fatalf("little-class view leaked %d big acquires", after.BigAcquires)
	}

	st.As(core.Big).Put(w, 2, []byte("b"))
	st.As(core.Big).MultiGet(w, []uint64{1, 2})
	end := probe.Stats()
	if got := end.BigAcquires; got != 2 {
		t.Fatalf("big-class view: big acquires = %d, want 2", got)
	}

	// The override must not outlive the op.
	if w.ClassHinted() || w.Class() != core.Big {
		t.Fatalf("hint leaked: hinted=%v class=%v", w.ClassHinted(), w.Class())
	}
}

// TestClassedViewRestoresOuterHint checks nesting: a view call inside
// an already-hinted scope restores the OUTER hint, not the base class.
func TestClassedViewRestoresOuterHint(t *testing.T) {
	st, _ := probeStore(t)
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	w.SetClassHint(core.Little)
	st.As(core.Big).Put(w, 7, []byte("x"))
	if !w.ClassHinted() || w.Class() != core.Little {
		t.Fatalf("outer hint lost: hinted=%v class=%v", w.ClassHinted(), w.Class())
	}
	w.ClearClassHint()
}
