package main

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The traced run records spans from the benchmark's own files only:
// around each request it issues (the root spans) and inside wrappers
// it installs at the program's public seams — Config.NewLock,
// Config.NewEngine, Config.CSPad, DurabilityConfig.FS and
// kvclient.Options.WrapConn. Nothing inside the program changes.

// spanKind names what a span covers.
type spanKind uint8

const (
	kindRoot        spanKind = iota // one request as its caller sees it
	kindConnWrite                   // kvclient's socket write (Options.WrapConn)
	kindLockAcquire                 // shard-lock Acquire: the wait
	kindLockRelease                 // shard-lock Release
	kindLockHold                    // Acquire's return to Release's call; overlaps other spans
	kindEngine                      // one storage-engine call
	kindCSPad                       // the AMP critical-section emulation
	kindWalWrite                    // a WAL file write (DurabilityConfig.FS)
	kindWalSync                     // a WAL file fsync
	numKinds
)

var kindNames = [numKinds]string{"root", "conn.write", "lock.acquire", "lock.release", "lock.hold", "engine", "cspad", "wal.write", "wal.sync"}

// span is one recorded interval. parent is the root request's id (a
// root span carries its own id); 0 means the span could not be tied to
// a sampled request.
type span struct {
	start, end int64
	parent     uint32
	kind       spanKind
	class      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// counter is an atomic counter on its own cache line, so the two
// callers' tallies do not bounce one line between cores.
type counter struct {
	atomic.Uint64
	_ [56]byte
}

// spanReserve is the room kept free for requests already sampled when
// the buffer stops sampling new ones: a request records at most a few
// dozen spans, so every sampled request is complete.
const spanReserve = 4096

// tracer holds the preallocated span buffer and the counters recorded
// at the same seams. Recording happens only while on is set; the
// wrappers forward without recording otherwise.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	full    atomic.Bool
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	nextID  atomic.Uint32
	stride  uint32

	// inflight[c] is the sampled id of class c's in-flight request (0
	// when none is in flight or it is not sampled); writing[c] says the
	// in-flight request writes. There is one caller per class, so the
	// effective class seen at a seam names the request it serves.
	inflight [2]struct {
		atomic.Uint32
		_ [60]byte
	}
	writing [2]struct {
		atomic.Bool
		_ [63]byte
	}

	acquires   [2]counter // shard-lock acquisitions by effective class
	connWrites counter
	connOut    counter
	connIn     counter
	rangeCalls counter
	rangePairs counter
	walBytes   counter
	userBytes  counter // key+value bytes the callers asked to write
	batchReqs  counter // MultiGet/MultiPut requests issued

	// Set by the little worker of amp-hotshard only (one goroutine).
	windowNs     []int64
	epochs, miss uint64
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, capacity), stride: 1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
	if i >= int64(len(t.spans)-spanReserve) {
		t.full.Store(true)
	}
}

// recorded returns the spans written so far (call after every writer
// has stopped).
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// beginRoot marks the start of a request of class c and returns its
// sampled id, or 0 when tracing is off or the request is not sampled.
func (t *tracer) beginRoot(c int, writes bool) uint32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.writing[c].Store(writes)
	id := t.nextID.Add(1)
	if id%t.stride != 0 || t.full.Load() {
		return 0
	}
	t.inflight[c].Store(id)
	return id
}

// endRoot ends class c's request and records its root span if it is
// sampled and tracing is still on; a request that outlives the traced
// window would be missing its late children.
func (t *tracer) endRoot(c int, id uint32, start, end int64) {
	if t == nil {
		return
	}
	t.writing[c].Store(false)
	if id == 0 {
		return
	}
	t.inflight[c].Store(0)
	if t.on.Load() {
		t.record(span{start: start, end: end, parent: id, kind: kindRoot, class: uint8(c)})
	}
}

// child records a span of class c's in-flight request, if it is
// sampled.
func (t *tracer) child(k spanKind, c int, start, end int64) {
	if p := t.inflight[c].Load(); p != 0 {
		t.record(span{start: start, end: end, parent: p, kind: k, class: uint8(c)})
	}
}

// sampled reports whether class c's in-flight request records spans.
func (t *tracer) sampled(c int) bool { return t.inflight[c].Load() != 0 }

// walParent names the request a WAL file operation serves. The file
// system seam sees no worker, so the operation goes to the in-flight
// request that writes, interactive first: in durable-lsm the
// interactive Put is the only write that waits for the group commit.
func (t *tracer) walParent() (uint32, uint8) {
	for c := 0; c < 2; c++ {
		if t.writing[c].Load() {
			return t.inflight[c].Load(), uint8(c)
		}
	}
	return 0, 0
}

// classOf is the effective class of w as a caller index.
func classOf(w *core.Worker) int {
	if w.Class() == core.Little {
		return 1
	}
	return 0
}

// tracedLock wraps one shard lock. holder and holdStart are written by
// the lock's holder only, so the lock itself orders every access.
type tracedLock struct {
	inner     locks.WLock
	t         *tracer
	holder    int
	holdStart int64
}

func (l *tracedLock) Acquire(w *core.Worker) {
	c := classOf(w)
	if l.t.on.Load() {
		l.t.acquires[c].Add(1)
	}
	if !l.t.on.Load() || !l.t.sampled(c) {
		l.inner.Acquire(w)
		l.holder, l.holdStart = c, 0
		return
	}
	t0 := l.t.now()
	l.inner.Acquire(w)
	t1 := l.t.now()
	l.holder, l.holdStart = c, t1
	l.t.child(kindLockAcquire, c, t0, t1)
}

// TryAcquire is forwarded untouched: a traced run must take the same
// paths as an untraced one.
func (l *tracedLock) TryAcquire(w *core.Worker) bool { return l.inner.TryAcquire(w) }

func (l *tracedLock) Release(w *core.Worker) {
	hs := l.holdStart
	l.holdStart = 0
	if !l.t.on.Load() || hs == 0 {
		l.inner.Release(w)
		return
	}
	c := l.holder
	t0 := l.t.now()
	l.inner.Release(w)
	t1 := l.t.now()
	l.t.child(kindLockHold, c, hs, t0)
	l.t.child(kindLockRelease, c, t0, t1)
}

// lockFactory wraps f so every lock it builds is traced. The most
// recently built lock is kept so engineFactory can pair a shard's
// engine with its lock: shardedkv builds each shard's lock and then its
// engine, and an engine call's request is the one holding that lock.
func (t *tracer) lockFactory(f locks.Factory, last **tracedLock) locks.Factory {
	return func() locks.WLock {
		l := &tracedLock{inner: f(), t: t}
		*last = l
		return l
	}
}

// engineFactory wraps f so every engine it builds is traced and keeps
// exactly the optional capabilities of the engine it wraps.
func (t *tracer) engineFactory(f func(int) shardedkv.Engine, last **tracedLock) func(int) shardedkv.Engine {
	return func(shard int) shardedkv.Engine {
		if *last == nil {
			panic("perfbench: engine built before its shard lock; cannot attribute engine spans")
		}
		e := wrapEngine(f(shard), t, *last)
		*last = nil
		return e
	}
}

// tracedEngine forwards the Engine methods and records one span per
// call, attributed to the class holding the shard's lock.
type tracedEngine struct {
	inner shardedkv.Engine
	t     *tracer
	lock  *tracedLock
}

func (e *tracedEngine) span(t0 int64) {
	e.t.child(kindEngine, e.lock.holder, t0, e.t.now())
}

// timed reports whether this call records a span: tracing is on and
// the request holding the shard's lock is sampled.
func (e *tracedEngine) timed() bool { return e.t.on.Load() && e.t.sampled(e.lock.holder) }

func (e *tracedEngine) Get(k uint64) ([]byte, bool) {
	if !e.timed() {
		return e.inner.Get(k)
	}
	t0 := e.t.now()
	v, ok := e.inner.Get(k)
	e.span(t0)
	return v, ok
}

func (e *tracedEngine) Put(k uint64, v []byte) bool {
	if !e.timed() {
		return e.inner.Put(k, v)
	}
	t0 := e.t.now()
	ok := e.inner.Put(k, v)
	e.span(t0)
	return ok
}

func (e *tracedEngine) Delete(k uint64) bool {
	if !e.timed() {
		return e.inner.Delete(k)
	}
	t0 := e.t.now()
	ok := e.inner.Delete(k)
	e.span(t0)
	return ok
}

func (e *tracedEngine) Len() int { return e.inner.Len() }

func (e *tracedEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	if !e.t.on.Load() {
		e.inner.Range(lo, hi, fn)
		return
	}
	t0 := e.t.now()
	var pairs uint64
	e.inner.Range(lo, hi, func(k uint64, v []byte) bool {
		pairs++
		return fn(k, v)
	})
	e.t.rangeCalls.Add(1)
	e.t.rangePairs.Add(pairs)
	e.span(t0)
}

// The optional capabilities shardedkv probes for by type assertion.
// Their method sets are restated here because shardedkv keeps the
// batch-range and scan interfaces unexported.
type batchRanger interface {
	BatchRange(reqs []shardedkv.RangeReq, emit func(req int, k uint64, v []byte))
}

type scanner interface {
	Scan(fn func(k uint64, v []byte) bool)
}

// hashTracedEngine is a traced engine that keeps the hash table's
// batch-range and unordered-scan capabilities.
type hashTracedEngine struct{ *tracedEngine }

func (e hashTracedEngine) BatchRange(reqs []shardedkv.RangeReq, emit func(req int, k uint64, v []byte)) {
	br := e.inner.(batchRanger)
	if !e.t.on.Load() {
		br.BatchRange(reqs, emit)
		return
	}
	t0 := e.t.now()
	var pairs uint64
	br.BatchRange(reqs, func(req int, k uint64, v []byte) {
		pairs++
		emit(req, k, v)
	})
	e.t.rangeCalls.Add(1)
	e.t.rangePairs.Add(pairs)
	e.span(t0)
}

func (e hashTracedEngine) Scan(fn func(k uint64, v []byte) bool) { e.inner.(scanner).Scan(fn) }

// snapTracedEngine is a traced engine that keeps the LSM's snapshot
// and compaction capabilities. Those run in checkpoints and recovery,
// outside the measured window, so they are forwarded unrecorded.
type snapTracedEngine struct{ *tracedEngine }

func (e snapTracedEngine) Snapshot() storage.Snapshot {
	return e.inner.(storage.Snapshotter).Snapshot()
}

func (e snapTracedEngine) Restore(src func(yield func(k uint64, v []byte) bool)) {
	e.inner.(storage.Snapshotter).Restore(src)
}

func (e snapTracedEngine) Compact() { e.inner.(storage.Compactor).Compact() }

// wrapEngine returns a traced engine that implements an optional
// capability exactly when inner does. Only the capability sets the
// engines have are supported; any other set panics rather than
// silently taking another code path.
func wrapEngine(inner shardedkv.Engine, t *tracer, lock *tracedLock) shardedkv.Engine {
	base := &tracedEngine{inner: inner, t: t, lock: lock}
	_, br := inner.(batchRanger)
	_, sc := inner.(scanner)
	_, sn := inner.(storage.Snapshotter)
	_, cp := inner.(storage.Compactor)
	switch {
	case !br && !sc && !sn && !cp:
		return base
	case br && sc && !sn && !cp:
		return hashTracedEngine{base}
	case !br && !sc && sn && cp:
		return snapTracedEngine{base}
	}
	panic("perfbench: engine has a capability set the tracing wrapper cannot forward exactly")
}

// tracedFS wraps the WAL's file system seam.
type tracedFS struct {
	inner wal.FS
	t     *tracer
}

func (f tracedFS) MkdirAll(dir string) error            { return f.inner.MkdirAll(dir) }
func (f tracedFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f tracedFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f tracedFS) SyncDir(dir string) error             { return f.inner.SyncDir(dir) }

func (f tracedFS) Create(name string) (wal.File, error) {
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{fl, f.t}, nil
}

func (f tracedFS) CreateTrunc(name string) (wal.File, error) {
	fl, err := f.inner.CreateTrunc(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{fl, f.t}, nil
}

type tracedFile struct {
	inner wal.File
	t     *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.inner.Write(p)
	}
	t0 := f.t.now()
	n, err := f.inner.Write(p)
	t1 := f.t.now()
	f.t.walBytes.Add(uint64(n))
	p0, c := f.t.walParent()
	f.t.record(span{start: t0, end: t1, parent: p0, kind: kindWalWrite, class: c})
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.t.on.Load() {
		return f.inner.Sync()
	}
	t0 := f.t.now()
	err := f.inner.Sync()
	t1 := f.t.now()
	p0, c := f.t.walParent()
	f.t.record(span{start: t0, end: t1, parent: p0, kind: kindWalSync, class: c})
	return err
}

func (f tracedFile) Close() error { return f.inner.Close() }

// tracedConn wraps one caller's client connection. Writes are spans of
// the caller's request; reads happen on the client's reader goroutine
// while the request waits, so they are only counted.
type tracedConn struct {
	net.Conn
	t     *tracer
	class int
}

func (c tracedConn) Write(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.connWrites.Add(1)
	c.t.connOut.Add(uint64(n))
	if c.t.sampled(c.class) {
		c.t.child(kindConnWrite, c.class, t0, c.t.now())
	}
	return n, err
}

func (c tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.connIn.Add(uint64(n))
	}
	return n, err
}
