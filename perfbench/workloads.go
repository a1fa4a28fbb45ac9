package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/shardedkv"
	"repro/internal/workload"
)

// The served defaults of cmd/kvserver: hashkv engine, ASL shard locks,
// 16 shards, the default admission gate, per-class SLOs, no CS pad.
const (
	servedShards   = 16
	sloInteractive = 100 * time.Microsecond
	sloBulk        = 2 * time.Millisecond
	zipfTheta      = 0.99
	batchKeys      = 16
	rangeSpan      = 256
	requestTimeout = 10 * time.Second
)

func engineSpec(name string) func(int) shardedkv.Engine {
	for _, e := range shardedkv.AllEngines() {
		if e.Name == name {
			return e.New
		}
	}
	panic("perfbench: unknown engine " + name)
}

// spec describes one workload: its recorded parameters, the request
// rate per caller used to size sample buffers, and its build function.
type spec struct {
	name     string
	params   map[string]any
	rateHint [2]int
	build    func(o buildOpts) (*env, error)
}

// buildOpts is what a build function needs: the seed, a private data
// directory, and the tracer when the run is traced (nil otherwise).
type buildOpts struct {
	seed uint64
	dir  string
	tr   *tracer
}

// caller is one closed-loop caller: prepare draws the next request and
// reports whether it writes; send sends it, checks the response, and
// returns the ops it covered. failed marks a request that was refused
// or failed; a non-nil error ends the run.
type caller interface {
	prepare() bool
	send() (ops uint64, failed bool, err error)
}

// env is one set-up workload, ready for its first request.
type env struct {
	store     *shardedkv.Store
	srv       *kvserver.Server
	callers   [2]caller // [0] interactive or big, [1] bulk or little
	direct    bool      // requests are direct Store calls (no wire)
	recoveryS float64   // time spent in shardedkv.Open on the preloaded log
	// close runs the workload's end-of-run checks and tears the
	// environment down.
	close func() error
}

var specs = []*spec{
	{
		name: "wire-mixed",
		params: map[string]any{
			"engine": "hashkv", "lock": "asl", "shards": servedShards,
			"slo_interactive": sloInteractive.String(), "slo_bulk": sloBulk.String(),
			"keys": 1 << 16, "value_bytes": valueSize, "preload": "even keys (half)",
			"interactive": "YCSB-A Get/Put 50/50, zipfian 0.99",
			"bulk":        "MultiGet/MultiPut 50/50 of 16 uniform keys",
		},
		rateHint: [2]int{60000, 20000},
		build:    buildWireMixed,
	},
	{
		name: "amp-hotshard",
		params: map[string]any{
			"engine": "hashkv", "lock": "asl", "shards": 4,
			"cs_pad": "2us big, x3.75 little (workload.DefaultShim)",
			"keys":   1 << 16, "value_bytes": valueSize, "preload": "even keys (half)",
			"mix":        "80% Put / 20% Get, zipfian 0.99, both workers",
			"little_slo": ampLittleSLO.String(),
		},
		rateHint: [2]int{250000, 150000},
		build:    buildAmpHotshard,
	},
	{
		name: "durable-lsm",
		params: map[string]any{
			"engine": "lsm", "lock": "asl", "shards": servedShards, "durability": "wal, default sync policies",
			"fsync":           "emulated " + flushLatency.String() + " flush",
			"slo_interactive": sloInteractive.String(), "slo_bulk": sloBulk.String(),
			"keys": durableKeys, "value_bytes": valueSize, "preload": "all keys, closed and reopened (recovery)",
			"interactive": "zipfian 0.99 Put (sync-acked, even keys) / Get 2:1",
			"bulk":        "MultiPut of 16 keys uniform over 4096 odd keys spaced 64 apart (async ack) 20% / Range of 256 keys 80%",
		},
		rateHint: [2]int{20000, 5000},
		build:    buildDurableLSM,
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// storeConfig applies the tracer's wrappers, when there is one, to the
// seams of cfg.
func storeConfig(cfg shardedkv.Config, tr *tracer) shardedkv.Config {
	if tr == nil {
		return cfg
	}
	var last *tracedLock
	cfg.NewLock = tr.lockFactory(cfg.NewLock, &last)
	cfg.NewEngine = tr.engineFactory(cfg.NewEngine, &last)
	if pad := cfg.CSPad; pad != nil {
		cfg.CSPad = func(w *core.Worker) {
			if !tr.on.Load() || !tr.sampled(classOf(w)) {
				pad(w)
				return
			}
			t0 := tr.now()
			pad(w)
			tr.child(kindCSPad, classOf(w), t0, tr.now())
		}
	}
	if d := cfg.Durability; d != nil {
		dc := *d
		dc.FS = tracedFS{inner: dc.FS, t: tr}
		cfg.Durability = &dc
	}
	return cfg
}

// preloadEven writes every even key below keys straight into the store.
func preloadEven(st *shardedkv.Store, chk *checker, keys uint64) {
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < keys; k += 2 {
		st.Put(w, k, fill(make([]byte, valueSize), k, preloadVersion()))
		chk.markWritten(k)
	}
}

// serve starts a kvserver over st with the served defaults and dials
// one client per caller class.
func serve(st *shardedkv.Store, tr *tracer) (*kvserver.Server, [2]*kvclient.Client, error) {
	var cls [2]*kvclient.Client
	srv, err := kvserver.New(kvserver.Config{
		Store:          st,
		SLOInteractive: sloInteractive,
		SLOBulk:        sloBulk,
	})
	if err != nil {
		return nil, cls, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, cls, err
	}
	for c := range cls {
		opts := kvclient.Options{RequestTimeout: requestTimeout}
		if tr != nil {
			opts.WrapConn = func(nc net.Conn) net.Conn { return tracedConn{Conn: nc, t: tr, class: c} }
		}
		cl, err := kvclient.DialOpts(srv.Addr().String(), opts)
		if err != nil {
			closeClients(cls)
			srv.Close()
			return nil, cls, fmt.Errorf("dial: %w", err)
		}
		cls[c] = cl
	}
	return srv, cls, nil
}

func closeClients(cls [2]*kvclient.Client) {
	for _, cl := range cls {
		if cl != nil {
			cl.Close()
		}
	}
}

// wireErr sorts a request error: a refusal (admission) or a failed
// write (degraded shard) counts as a failed request; anything else —
// a lost connection, a protocol error — ends the run.
func wireErr(err error) (failed bool, fatal error) {
	if err == nil {
		return false, nil
	}
	var se *kvclient.StatusError
	if errors.As(err, &se) && (se.Status == kvserver.StatusErrAdmission || se.Status == kvserver.StatusErrUnavailable) {
		return true, nil
	}
	return false, fmt.Errorf("request lost: %w", err)
}

func callerRNG(seed uint64, c int) *prng.SplitMix64 {
	return prng.NewSplitMix64(prng.Mix64(seed*0x9e3779b97f4a7c15 + uint64(c) + 1))
}

// ---- wire-mixed ----

const wireKeys = 1 << 16

func buildWireMixed(o buildOpts) (*env, error) {
	chk := newChecker(wireKeys)
	st := shardedkv.New(storeConfig(shardedkv.Config{
		Shards:    servedShards,
		NewEngine: engineSpec("hashkv"),
		NewLock:   locks.FactoryASL(),
	}, o.tr))
	preloadEven(st, chk, wireKeys)
	srv, cls, err := serve(st, o.tr)
	if err != nil {
		return nil, err
	}
	zipf := workload.NewZipf(wireKeys, zipfTheta)
	e := &env{store: st, srv: srv}
	e.callers[0] = &pointCaller{cl: cls[0], chk: chk, rng: callerRNG(o.seed, 0), keys: zipf, tr: o.tr,
		mix: workload.YCSBA(), buf: make([]byte, valueSize)}
	e.callers[1] = newBatchCaller(cls[1], chk, callerRNG(o.seed, 1), wireKeys, o.tr)
	e.close = func() error {
		closeClients(cls)
		srv.Close()
		st.Close(core.NewWorker(core.WorkerConfig{Class: core.Big}))
		return nil
	}
	return e, nil
}

// pointCaller is the interactive wire caller: point Get/Put over
// zipfian keys. With putEven set, Puts go to the even key next to the
// drawn one and every acked Put is remembered in synced (durable-lsm's
// crash check).
type pointCaller struct {
	cl      *kvclient.Client
	chk     *checker
	rng     *prng.SplitMix64
	keys    workload.KeyGen
	mix     *workload.Mix
	tr      *tracer
	buf     []byte
	putEven bool
	synced  []uint64

	k   uint64
	put bool
}

func (p *pointCaller) prepare() bool {
	p.k = p.keys.Draw(p.rng)
	p.put = p.mix.Draw(p.rng.Uint64()) == workload.OpPut
	if p.put && p.putEven {
		p.k &^= 1
	}
	return p.put
}

func (p *pointCaller) send() (uint64, bool, error) {
	if p.put {
		ver := p.chk.nextVersion(writerInteractive)
		if p.tr != nil && p.tr.on.Load() {
			p.tr.userBytes.Add(8 + valueSize)
		}
		_, err := p.cl.Put(kvserver.ClassInteractive, p.k, fill(p.buf, p.k, ver))
		if failed, fatal := wireErr(err); failed || fatal != nil {
			return 0, failed, fatal
		}
		p.chk.markWritten(p.k)
		if p.synced != nil {
			p.synced[p.k] = ver
		}
		return 1, false, nil
	}
	was := p.chk.wasWritten(p.k)
	v, ok, err := p.cl.Get(kvserver.ClassInteractive, p.k)
	if failed, fatal := wireErr(err); failed || fatal != nil {
		return 0, failed, fatal
	}
	return 1, false, p.chk.checkRead(p.k, v, ok, was)
}

// batchCaller is wire-mixed's bulk caller: MultiGet/MultiPut (50/50)
// of 16 uniform keys.
type batchCaller struct {
	cl   *kvclient.Client
	chk  *checker
	rng  *prng.SplitMix64
	keys uint64
	tr   *tracer

	put  bool
	ks   []uint64
	was  []bool
	kvs  []shardedkv.Pair
	bufs [][]byte
}

func newBatchCaller(cl *kvclient.Client, chk *checker, rng *prng.SplitMix64, keys uint64, tr *tracer) *batchCaller {
	b := &batchCaller{cl: cl, chk: chk, rng: rng, keys: keys, tr: tr,
		ks: make([]uint64, batchKeys), was: make([]bool, batchKeys), kvs: make([]shardedkv.Pair, batchKeys)}
	for range batchKeys {
		b.bufs = append(b.bufs, make([]byte, valueSize))
	}
	return b
}

func (b *batchCaller) prepare() bool {
	b.put = b.rng.Uint64()&1 == 0
	for i := range b.ks {
		b.ks[i] = prng.Uint64n(b.rng, b.keys)
	}
	return b.put
}

func (b *batchCaller) send() (uint64, bool, error) {
	if b.tr != nil && b.tr.on.Load() {
		b.tr.batchReqs.Add(1)
	}
	if b.put {
		for i, k := range b.ks {
			b.kvs[i] = shardedkv.Pair{Key: k, Value: fill(b.bufs[i], k, b.chk.nextVersion(writerBulk))}
		}
		if b.tr != nil && b.tr.on.Load() {
			b.tr.userBytes.Add(batchKeys * (8 + valueSize))
		}
		_, err := b.cl.MultiPut(kvserver.ClassBulk, b.kvs)
		if failed, fatal := wireErr(err); failed || fatal != nil {
			return 0, failed, fatal
		}
		for _, k := range b.ks {
			b.chk.markWritten(k)
		}
		return batchKeys, false, nil
	}
	for i, k := range b.ks {
		b.was[i] = b.chk.wasWritten(k)
	}
	vals, found, err := b.cl.MultiGet(kvserver.ClassBulk, b.ks)
	if failed, fatal := wireErr(err); failed || fatal != nil {
		return 0, failed, fatal
	}
	if len(vals) != len(b.ks) || len(found) != len(b.ks) {
		return 0, false, checkFailed("MultiGet of %d keys answered %d values", len(b.ks), len(vals))
	}
	for i, k := range b.ks {
		if err := b.chk.checkRead(k, vals[i], found[i], b.was[i]); err != nil {
			return 0, false, err
		}
	}
	return batchKeys, false, nil
}

// ---- amp-hotshard ----

const (
	ampKeys      = 1 << 16
	ampShards    = 4
	ampBigCS     = 2 * time.Microsecond
	ampLittleSLO = 20 * time.Microsecond
	ampEpoch     = 0
	// ampWindowEvery is how often (in ops) the traced little worker
	// samples its epoch's reorder window.
	ampWindowEvery = 64
)

func buildAmpHotshard(o buildOpts) (*env, error) {
	chk := newChecker(ampKeys)
	shim := workload.DefaultShim()
	units := calibratedUnits(ampBigCS)
	st := shardedkv.New(storeConfig(shardedkv.Config{
		Shards:    ampShards,
		NewEngine: engineSpec("hashkv"),
		NewLock:   locks.FactoryASL(),
		CSPad:     func(w *core.Worker) { workload.Spin(shim.CSUnits(units, w.Class())) },
	}, o.tr))
	preloadEven(st, chk, ampKeys)
	zipf := workload.NewZipf(ampKeys, zipfTheta)
	e := &env{store: st, direct: true}
	for c := range e.callers {
		class := core.Big
		if c == 1 {
			class = core.Little
		}
		e.callers[c] = &ampCaller{st: st, chk: chk, rng: callerRNG(o.seed, c), keys: zipf, mix: workload.WriteHeavy(), tr: o.tr,
			w: core.NewWorker(core.WorkerConfig{Class: class}), little: c == 1, writer: writerInteractive + c}
	}
	e.close = func() error {
		st.Close(core.NewWorker(core.WorkerConfig{Class: core.Big}))
		return nil
	}
	return e, nil
}

// calibrations is how many spin calibrations calibratedUnits takes
// the median of; one calibration alone moves by several percent from
// run to run, and the emulated critical section with it.
const calibrations = 9

// calibratedUnits converts d to spin units by the median of several
// calibrations.
func calibratedUnits(d time.Duration) int64 {
	us := make([]int64, calibrations)
	for i := range us {
		us[i] = workload.Calibrate().Units(d)
	}
	slices.Sort(us)
	return us[len(us)/2]
}

// ampCaller is one in-process worker of amp-hotshard: write-heavy
// zipfian ops straight on the Store. The little worker runs every op
// inside an SLO epoch.
type ampCaller struct {
	st     *shardedkv.Store
	chk    *checker
	rng    *prng.SplitMix64
	keys   workload.KeyGen
	mix    *workload.Mix
	tr     *tracer
	w      *core.Worker
	little bool
	writer int

	k   uint64
	put bool
	n   uint64
}

func (a *ampCaller) prepare() bool {
	a.k = a.keys.Draw(a.rng)
	a.put = a.mix.Draw(a.rng.Uint64()) == workload.OpPut
	return a.put
}

func (a *ampCaller) send() (uint64, bool, error) {
	if a.little {
		a.w.EpochStart(ampEpoch)
	}
	var err error
	if a.put {
		// The store keeps the value by reference, so each Put gets its
		// own buffer, as any caller of Store.Put must.
		v := fill(make([]byte, valueSize), a.k, a.chk.nextVersion(a.writer))
		if _, perr := a.st.Put(a.w, a.k, v); perr != nil {
			err = fmt.Errorf("volatile Put failed: %w", perr)
		} else {
			a.chk.markWritten(a.k)
		}
	} else {
		was := a.chk.wasWritten(a.k)
		v, ok := a.st.Get(a.w, a.k)
		err = a.chk.checkRead(a.k, v, ok, was)
	}
	if a.little {
		lat := a.w.EpochEnd(ampEpoch, int64(ampLittleSLO))
		if t := a.tr; t != nil && t.on.Load() {
			t.epochs++
			if lat > int64(ampLittleSLO) {
				t.miss++
			}
			if a.n%ampWindowEvery == 0 {
				t.windowNs = append(t.windowNs, a.w.EpochWindow(ampEpoch))
			}
			a.n++
		}
	}
	return 1, false, err
}

// ---- durable-lsm ----

const durableKeys = 1 << 18

// durableBulkStride spaces the odd keys the bulk caller writes:
// durableKeys/durableBulkStride of them (4096 keys, four in every
// 256-key span). Its MultiPuts then overwrite a set that fits in the
// memtables, which stop growing within the warm-up: the memtables the
// preload left nearly full freeze in its first fraction of a second,
// and none freezes during a measured window, so every window reads the
// same engine state. Writes over all odd keys would grow the memtables
// through each window (a Range reads the memtable beside the runs, so
// it slows as they grow) and freeze them near the window's end, at a
// moment set by the host's speed; bulk_p50_us then jumps from run to
// run (two sets of ten seeds spread 0.36 and 0.34).
const durableBulkStride = 64

// durableInteractiveMix is two sync-acked Puts to one Get. A Put waits
// for an fsync and a Get does not, so their latencies form two modes;
// at an even split the median would sit on the gap between them and
// jump from mode to mode with the seed. At two to one it is a Put
// percentile.
func durableInteractiveMix() *workload.Mix {
	return workload.NewMix(
		struct {
			Kind   workload.OpKind
			Weight int
		}{workload.OpPut, 2},
		struct {
			Kind   workload.OpKind
			Weight int
		}{workload.OpGet, 1},
	)
}

func buildDurableLSM(o buildOpts) (*env, error) {
	dir := filepath.Join(o.dir, "wal")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := storeConfig(shardedkv.Config{
		Shards:     servedShards,
		NewEngine:  engineSpec("lsm"),
		NewLock:    locks.FactoryASL(),
		Durability: &shardedkv.DurabilityConfig{Dir: dir, FS: emulatedDisk{}},
	}, o.tr)
	chk := newChecker(durableKeys)

	// Preload every key through a durable store (bulk class: async ack),
	// close it cleanly, and reopen: the reopen is recovery.
	st, err := shardedkv.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	wl := core.NewWorker(core.WorkerConfig{Class: core.Little})
	kvs := make([]shardedkv.Pair, 0, 1024)
	for k := uint64(0); k < durableKeys; k++ {
		kvs = append(kvs, shardedkv.Pair{Key: k, Value: fill(make([]byte, valueSize), k, preloadVersion())})
		if len(kvs) == cap(kvs) {
			if _, err := st.MultiPut(wl, kvs); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			kvs = kvs[:0]
		}
		chk.markWritten(k)
	}
	if err := st.Flush(wl); err != nil {
		return nil, fmt.Errorf("preload flush: %w", err)
	}
	st.Close(wl)
	t := time.Now()
	st, err = shardedkv.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t).Seconds()

	srv, cls, err := serve(st, o.tr)
	if err != nil {
		return nil, err
	}
	synced := make([]uint64, durableKeys)
	e := &env{store: st, srv: srv, recoveryS: recovery}
	e.callers[0] = &pointCaller{cl: cls[0], chk: chk, rng: callerRNG(o.seed, 0), tr: o.tr,
		keys: workload.NewZipf(durableKeys, zipfTheta), mix: durableInteractiveMix(), buf: make([]byte, valueSize),
		putEven: true, synced: synced}
	e.callers[1] = newScanCaller(cls[1], chk, callerRNG(o.seed, 1), o.tr)
	e.close = func() error {
		closeClients(cls)
		srv.Close()
		// Simulated crash: buffered log records are dropped, nothing is
		// synced on the way down. Every sync-acked interactive Put must
		// survive the reopen.
		st.CrashDrop()
		re, err := shardedkv.Open(cfg)
		if err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		cerr := checkAfterCrash(re, chk, synced)
		re.Close(wl)
		if cerr != nil {
			return cerr
		}
		return os.RemoveAll(dir)
	}
	return e, nil
}

// checkAfterCrash reads every key of the reopened store. Every key was
// preloaded durably, so every key must be found. An even key whose
// interactive Put was sync-acked must read that write or a later one
// (the interactive caller is its only writer); other keys must read a
// value of one of their writers.
func checkAfterCrash(st *shardedkv.Store, chk *checker, synced []uint64) error {
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < durableKeys; k++ {
		v, ok := st.Get(w, k)
		if !ok {
			return checkFailed("after crash: key %d lost", k)
		}
		ver, err := chk.decode(k, v)
		if err != nil {
			return fmt.Errorf("after crash: %w", err)
		}
		writer := int(ver >> 48)
		owner := writerBulk
		if k%2 == 0 {
			owner = writerInteractive
		}
		if writer != writerPreload && writer != owner {
			return checkFailed("after crash: key %d holds a write of writer %d", k, writer)
		}
		if s := synced[k]; s != 0 && (writer != writerInteractive || ver < s) {
			return checkFailed("after crash: key %d reads version %#x, older than its sync-acked %#x", k, ver, s)
		}
	}
	return nil
}

// scanCaller is durable-lsm's bulk caller: MultiPut of 16 odd keys
// drawn uniformly from every durableBulkStride-th key (20%) and Range
// over 256-key spans (80%). Every key is preloaded and never deleted,
// so a Range must return its whole span. With bulk writes over all odd
// keys the larger share (80% MultiPut), the memtable freezes and merges
// they caused put millisecond stalls in both classes' tails, even over
// the emulated disk, and bulk_p99_us spread 0.26 over five seeds.
type scanCaller struct {
	*batchCaller
	scan bool
	lo   uint64
}

func newScanCaller(cl *kvclient.Client, chk *checker, rng *prng.SplitMix64, tr *tracer) *scanCaller {
	return &scanCaller{batchCaller: newBatchCaller(cl, chk, rng, durableKeys, tr)}
}

func (s *scanCaller) prepare() bool {
	s.scan = s.rng.Uint64()%5 != 0
	if s.scan {
		s.lo = prng.Uint64n(s.rng, durableKeys-rangeSpan+1)
		return false
	}
	s.put = true
	for i := range s.ks {
		s.ks[i] = prng.Uint64n(s.rng, durableKeys/durableBulkStride)*durableBulkStride | 1
	}
	return true
}

func (s *scanCaller) send() (uint64, bool, error) {
	if !s.scan {
		return s.batchCaller.send()
	}
	hi := s.lo + rangeSpan - 1
	kvs, more, err := s.cl.Range(kvserver.ClassBulk, s.lo, hi, 0)
	if failed, fatal := wireErr(err); failed || fatal != nil {
		return 0, failed, fatal
	}
	if more || len(kvs) != rangeSpan {
		return 0, false, checkFailed("Range [%d,%d] returned %d pairs (more=%v), want %d", s.lo, hi, len(kvs), more, rangeSpan)
	}
	for i, kv := range kvs {
		if kv.Key != s.lo+uint64(i) {
			return 0, false, checkFailed("Range [%d,%d]: pair %d has key %d", s.lo, hi, i, kv.Key)
		}
		if err := s.chk.checkRead(kv.Key, kv.Value, true, true); err != nil {
			return 0, false, err
		}
	}
	return rangeSpan, false, nil
}
