// Command kvbench drives the sharded asymmetry-aware KV service
// (internal/shardedkv) with the repository's workload mixes and
// reports throughput and tail latency per (engine, mix, lock)
// configuration, comparing ASL shard locks against class-oblivious
// baselines such as plain sync.Mutex.
//
// Usage:
//
//	kvbench                                  # engine × mix grid, asl vs mutex
//	kvbench -engines hashkv,btree -mixes zipf -locks all
//	kvbench -threads 8 -bigs 4 -slo 200us -dur 1s -shardstats
//	kvbench -reshard -mixes zipfw            # + rs-* dynamic-reshard rows
//	kvbench -wal                             # + wal-* durable rows
//	kvbench -bias -bigs 1 -mixes zipfw       # + bias-* biased-shard-lock rows
//	kvbench -bias -reshard                   # + rs-bias-* (splits revoke bias)
//	kvbench -net -mixes zipfw                # the grid over TCP: net-* rows
//	kvbench -net -netaddr host:7877          # ... against an external kvserver
//	kvbench -json BENCH_kvbench.json         # append a trajectory record per row
//
// Mixes: read (95% get), write (80% put), zipf (YCSB-A 50/50 over
// zipfian keys), zipfw (write-heavy 80% put over zipfian keys — the
// hot-shard regime resharding and biased locks target), batch
// (MultiGet/MultiPut, keys sorted by shard), scan (YCSB-E 95% range
// scan / 5% put over -span-wide windows), and scanbatch (MultiRange,
// -batch ranges per request grouped by shard).
// Locks: asl, asl-blocking (for hosts with more workers than cores),
// mutex, mcs, pthread. -reshard adds rs-<lock> rows on a store with
// the skew detector live: sustained hot shards split mid-run, and the
// reshard event/split counts land on stderr and in the -json records.
// -wal adds wal-<lock> rows on a durable store that report
// ops_per_fsync. -net replaces the expansion with the over-the-wire
// family: net-<lock> rows run against an in-process kvserver, big
// workers issuing interactive-class requests and little workers
// bulk-class ones, with client-side per-class p99s and admission
// counts in the records (see cmd/kvbench/README.md for the full flag
// and schema reference). -bias adds bias-<lock> rows (and, with
// -reshard, rs-bias-<lock>) whose shard locks carry single-owner bias:
// a worker that takes nearly every acquisition of an adoption window
// is adopted and acquires with plain atomics until foreign traffic or
// a split revokes it through the epoch/handshake grace period; the
// rows report bias_adoptions/bias_revocations/bias_fast_acquires. Like
// every trajectory number, rs-* and net-* rows are trend data, not
// gates — shared runners are noisy and splits/queueing depend on how
// fast skew accumulates within the measured window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/shardedkv"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

type benchConfig struct {
	shards   int
	threads  int
	bigs     int
	dur      time.Duration
	warmup   time.Duration
	slo      int64
	keys     uint64
	vsize    int
	batch    int
	span     uint64
	zipfS    float64
	ncsUnits int64
	csUnits  int64
	skew     float64
	// Net-mode knobs (-net): bulk-class epoch SLO on the server, the
	// per-shard bulk admission bound, and the client connection count
	// (0 = one per worker).
	sloBulk      time.Duration
	bulkInflight int
	netConns     int
}

type mixSpec struct {
	name string
	mix  *workload.Mix
	// zipf selects zipfian key popularity instead of uniform.
	zipf bool
	// batched selects MultiGet/MultiPut operation batches.
	batched bool
}

func allMixes() []mixSpec {
	return []mixSpec{
		{name: "read", mix: workload.ReadHeavy()},
		{name: "write", mix: workload.WriteHeavy()},
		{name: "zipf", mix: workload.YCSBA(), zipf: true},
		{name: "zipfw", mix: workload.WriteHeavy(), zipf: true},
		{name: "batch", mix: workload.ReadHeavy(), batched: true},
		{name: "scan", mix: workload.ScanHeavy()},
		{name: "scanbatch", mix: workload.ScanHeavy(), batched: true},
	}
}

type lockSpec struct {
	name string
	f    locks.Factory
	// slo enables epoch/SLO annotation (only meaningful for asl).
	slo bool
	// reshard runs the row on a store with the skew detector live.
	reshard bool
	// wal runs the row on a durable store: every write appended to a
	// per-shard log, big-class (interactive) writers waiting for group
	// commit, little-class (bulk) writers acking after the buffered
	// append. The row reports ops-per-fsync — the group-commit
	// amortisation the WAL exists to maximise.
	wal bool
	// net runs the row over the wire: an in-process kvserver serves
	// the store and the workers drive it through kvclient connections,
	// big-class workers as interactive requests and little-class
	// workers as bulk.
	net bool
	// bias wraps every shard lock with locks.Biased: a shard whose
	// windowed take counter sees one worker take essentially every lock
	// acquisition adopts that worker (plain-atomic fast path, no
	// contended RMW per op) until foreign traffic — or a split —
	// revokes the bias through the epoch/handshake grace period. Bias
	// rows report adoption/revocation counts.
	bias bool
}

// expandLocks grows each base lock into its comparison family: the
// plain row, an rs-* dynamic-reshard sibling (-reshard), bias-* and
// rs-bias-* biased-lock siblings (-bias), and a wal-* durable sibling
// (-wal) — so handoff policy, shard fission and single-owner bias all
// answer the same contention in one grid run.
func expandLocks(lks []lockSpec, reshard, walRows, bias bool) []lockSpec {
	var out []lockSpec
	for _, lk := range lks {
		out = append(out, lk)
		if reshard {
			out = append(out, lockSpec{name: "rs-" + lk.name, f: lk.f, slo: lk.slo, reshard: true})
		}
		if bias {
			// With -reshard a rs-bias-<lock> sibling adds splits —
			// every split of a biased shard revokes the parent's bias
			// first.
			out = append(out, lockSpec{name: "bias-" + lk.name, f: lk.f, slo: lk.slo, bias: true})
			if reshard {
				out = append(out, lockSpec{name: "rs-bias-" + lk.name, f: lk.f, slo: lk.slo, reshard: true, bias: true})
			}
		}
		if walRows {
			// wal-<lock> pays one leader-elected group commit per
			// sync-wait write; concurrent writers share one fsync.
			out = append(out, lockSpec{name: "wal-" + lk.name, f: lk.f, slo: lk.slo, wal: true})
		}
	}
	return out
}

// expandNetLocks grows each base lock into its over-the-wire family:
// one net-<lock> row per lock. The -reshard, -wal and -bias families
// are local-only (the net rows keep placement static), so net mode
// replaces rather than extends the local expansion.
func expandNetLocks(lks []lockSpec) []lockSpec {
	var out []lockSpec
	for _, lk := range lks {
		out = append(out, lockSpec{name: "net-" + lk.name, f: lk.f, slo: lk.slo, net: true})
	}
	return out
}

func allLocks() []lockSpec {
	return []lockSpec{
		// asl is the paper's default spinning stack (reorderable over
		// MCS); asl-blocking is the Bench-6 flavour (sleeping standby
		// over the barging mutex) for hosts with more workers than
		// cores — use it when GOMAXPROCS < -threads.
		{name: "asl", f: locks.FactoryASL(), slo: true},
		{name: "asl-blocking", f: locks.FactoryASLBlocking(), slo: true},
		{name: "mutex", f: locks.FactorySyncMutex()},
		{name: "mcs", f: locks.FactoryMCS()},
		{name: "pthread", f: locks.FactoryPthread()},
	}
}

// spanHi returns lo+span-1 clamped to the top of the key space: a lo
// drawn near MaxUint64 must widen to the end, not wrap into an empty
// range.
func spanHi(lo, span uint64) uint64 {
	hi := lo + span - 1
	if hi < lo {
		return ^uint64(0)
	}
	return hi
}

// preload fills half the keyspace so gets have something to hit.
func preload(st *shardedkv.Store, cfg benchConfig) {
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	v := make([]byte, cfg.vsize)
	for k := uint64(0); k < cfg.keys; k += 2 {
		st.Put(w, k, v)
	}
}

// run executes one configuration and returns its summary row, the
// store's per-shard counters, and (for rs/wal/bias rows) the aggregate
// resharding, log, and biased-lock stats.
func run(name string, eng shardedkv.EngineSpec, mix mixSpec, lk lockSpec, cfg benchConfig) (stats.Summary, []shardedkv.ShardStats, *shardedkv.ReshardStats, *wal.Stats, *locks.BiasStats) {
	// The critical-section pad emulates the paper's AMP regime on a
	// symmetric host: a little-class holder keeps the shard lock
	// CSFactor times longer, exactly the condition under which FIFO
	// queues collapse and bounded reordering pays (Fig. 1 vs Fig. 4).
	shim := workload.DefaultShim()
	scfg := shardedkv.Config{
		Shards:    cfg.shards,
		NewEngine: eng.New,
		NewLock:   lk.f,
		CSPad: func(w *core.Worker) {
			workload.Spin(shim.CSUnits(cfg.csUnits, w.Class()))
		},
		Bias: lk.bias,
	}
	if lk.reshard {
		// An aggressive detector relative to the run length: several
		// observation windows fit in the measured duration, so a
		// sustained zipf hot shard splits while the row is recording.
		window := cfg.dur / 10
		if window < 20*time.Millisecond {
			window = 20 * time.Millisecond
		}
		scfg.Reshard = &shardedkv.ReshardConfig{
			SkewFactor:    cfg.skew,
			Window:        window,
			Sustain:       2,
			MinOps:        256,
			MinContention: 0.005,
			MaxShards:     cfg.shards * 8,
		}
	}
	var walDir string
	if lk.wal {
		d, err := os.MkdirTemp("", "kvbench-wal-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: wal dir: %v\n", err)
			os.Exit(1)
		}
		walDir = d
		// Default sync policies: big-class workers write interactive
		// (wait for group commit), little-class workers bulk (ack after
		// the buffered append).
		scfg.Durability = &shardedkv.DurabilityConfig{Dir: walDir}
	}
	st := shardedkv.New(scfg)
	preload(st, cfg)
	var keygen workload.KeyGen = workload.NewUniform(cfg.keys)
	if mix.zipf {
		keygen = workload.NewZipf(cfg.keys, cfg.zipfS)
	}
	useSLO := lk.slo && cfg.slo >= 0

	// Samples taken before recording turns on are discarded, as the
	// figure harness does with its Warmup window: they cover goroutine
	// spawn, cold engine structures, and the AIMD controller's
	// convergence from its initial window.
	var stop, recording atomic.Bool
	recs := make([]*stats.ClassedRecorder, cfg.threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.threads; i++ {
		class := core.Big
		if i >= cfg.bigs {
			class = core.Little
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		wg.Add(1)
		go func(i int, class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(i)*0x9e3779b97f4a7c15 + 0xbeef)
			val := make([]byte, cfg.vsize)
			ncs := shim.NCSUnits(cfg.ncsUnits, class)
			kvs := make([]shardedkv.Pair, cfg.batch)
			keys := make([]uint64, cfg.batch)
			reqs := make([]shardedkv.RangeReq, cfg.batch)
			// doOp returns the number of point operations the request
			// covered — batch size for batched ops, keys visited for
			// scans — so every row reports ops/s in the same per-key
			// unit (P99 stays per request).
			doOp := func() uint64 {
				kind := mix.mix.Draw(rng.Uint64())
				if mix.batched {
					switch kind {
					case workload.OpScan:
						for j := range reqs {
							lo := keygen.Draw(rng)
							reqs[j] = shardedkv.RangeReq{Lo: lo, Hi: spanHi(lo, cfg.span)}
						}
						visited := uint64(0)
						for _, res := range st.MultiRange(w, reqs) {
							visited += uint64(len(res))
						}
						return max(visited, 1)
					case workload.OpGet:
						for j := range keys {
							keys[j] = keygen.Draw(rng)
						}
						st.MultiGet(w, keys)
					default:
						for j := range kvs {
							kvs[j] = shardedkv.Pair{Key: keygen.Draw(rng), Value: val}
						}
						st.MultiPut(w, kvs)
					}
					return uint64(cfg.batch)
				}
				k := keygen.Draw(rng)
				switch kind {
				case workload.OpScan:
					visited := uint64(0)
					st.Range(w, k, spanHi(k, cfg.span), func(uint64, []byte) bool {
						visited++
						return true
					})
					return max(visited, 1)
				case workload.OpGet:
					st.Get(w, k)
				default:
					st.Put(w, k, val)
				}
				return 1
			}
			for !stop.Load() {
				var lat int64
				var n uint64
				if useSLO {
					w.EpochStart(0)
					n = doOp()
					lat = w.EpochEnd(0, cfg.slo)
				} else {
					s := w.Now()
					n = doOp()
					lat = w.Now() - s
				}
				if recording.Load() {
					rec.RecordBatch(class, lat, n)
				}
				workload.Spin(ncs)
			}
		}(i, class)
	}
	time.Sleep(cfg.warmup)
	recording.Store(true)
	time.Sleep(cfg.dur)
	stop.Store(true)
	wg.Wait()
	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	var rs *shardedkv.ReshardStats
	if lk.reshard {
		st.StopReshard()
		r := st.ReshardStats()
		rs = &r
	}
	shardStats := st.Stats()
	var bs *locks.BiasStats
	if lk.bias {
		// The aggregate covers split-retired parents too.
		b := st.AggregateBiasStats()
		bs = &b
	}
	var ws *wal.Stats
	if lk.wal {
		s := st.WalStats()
		ws = &s
		st.Close(core.NewWorker(core.WorkerConfig{Class: core.Big}))
		os.RemoveAll(walDir)
	}
	return merged.Summarize(name, cfg.dur), shardStats, rs, ws, bs
}

// netPreload fills half the keyspace over the wire (MultiPut batches)
// so gets have something to hit, mirroring preload.
func netPreload(cl *kvclient.Client, cfg benchConfig) error {
	v := make([]byte, cfg.vsize)
	kvs := make([]shardedkv.Pair, 0, 512)
	for k := uint64(0); k < cfg.keys; k += 2 {
		kvs = append(kvs, shardedkv.Pair{Key: k, Value: v})
		if len(kvs) == cap(kvs) || k+2 >= cfg.keys {
			if _, err := cl.MultiPut(kvserver.ClassInteractive, kvs); err != nil {
				return err
			}
			kvs = kvs[:0]
		}
	}
	return nil
}

// runNet executes one configuration over the wire: an in-process
// kvserver (or, with remoteAddr, an external one) serves the store,
// and the workers drive it through kvclient connections — big-class
// workers issue interactive requests, little-class workers bulk ones,
// so the per-request SLO class byte carries the asymmetry instead of
// any per-goroutine state. Returns the client-side summary (BigP99 =
// interactive, LittleP99 = bulk) and the server's final stats.
func runNet(name string, eng shardedkv.EngineSpec, mix mixSpec, lk lockSpec, cfg benchConfig, remoteAddr string) (stats.Summary, *kvserver.ServerStats, error) {
	var srv *kvserver.Server
	addr := remoteAddr
	if addr == "" {
		shim := workload.DefaultShim()
		st := shardedkv.New(shardedkv.Config{
			Shards:    cfg.shards,
			NewEngine: eng.New,
			NewLock:   lk.f,
			CSPad: func(w *core.Worker) {
				// Keyed to the EFFECTIVE class — the per-request hint —
				// so a bulk request pays the little-core critical
				// section whichever goroutine executes it.
				workload.Spin(shim.CSUnits(cfg.csUnits, w.Class()))
			},
		})
		sloI := time.Duration(0)
		if lk.slo && cfg.slo > 0 {
			sloI = time.Duration(cfg.slo)
		}
		sloB := time.Duration(0)
		if lk.slo && cfg.sloBulk > 0 {
			sloB = cfg.sloBulk
		}
		var err error
		srv, err = kvserver.New(kvserver.Config{
			Store:          st,
			SLOInteractive: sloI,
			SLOBulk:        sloB,
			Admission:      kvserver.AdmissionConfig{BulkPerShard: cfg.bulkInflight},
		})
		if err != nil {
			return stats.Summary{}, nil, err
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return stats.Summary{}, nil, err
		}
		defer srv.Close()
		addr = srv.Addr().String()
	}

	nconn := cfg.netConns
	if nconn <= 0 {
		nconn = cfg.threads
	}
	clients := make([]*kvclient.Client, nconn)
	for i := range clients {
		cl, err := kvclient.DialRetry(addr, 5*time.Second)
		if err != nil {
			return stats.Summary{}, nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients[i] = cl
		defer cl.Close()
	}
	if err := netPreload(clients[0], cfg); err != nil {
		return stats.Summary{}, nil, fmt.Errorf("preload: %w", err)
	}

	var keygen workload.KeyGen = workload.NewUniform(cfg.keys)
	if mix.zipf {
		keygen = workload.NewZipf(cfg.keys, cfg.zipfS)
	}

	var stop, recording atomic.Bool
	var rejected atomic.Uint64
	var dead atomic.Int64
	var firstErr atomic.Pointer[error]
	recs := make([]*stats.ClassedRecorder, cfg.threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.threads; i++ {
		class := core.Big
		wireClass := kvserver.ClassInteractive
		if i >= cfg.bigs {
			class = core.Little
			wireClass = kvserver.ClassBulk
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		cl := clients[i%nconn]
		wg.Add(1)
		go func(i int, class core.Class, wireClass uint8, cl *kvclient.Client) {
			defer wg.Done()
			rng := prng.NewSplitMix64(uint64(i)*0x9e3779b97f4a7c15 + 0xbeef)
			val := make([]byte, cfg.vsize)
			kvs := make([]shardedkv.Pair, cfg.batch)
			keys := make([]uint64, cfg.batch)
			// doOp mirrors run()'s operation unit accounting; it
			// returns (ops covered, fatal error). Admission-rejected
			// bulk requests count as one completed (shed) op.
			doOp := func() (uint64, error) {
				kind := mix.mix.Draw(rng.Uint64())
				if mix.batched {
					switch kind {
					case workload.OpScan:
						// No MultiRange opcode (docs/protocol.md):
						// scanbatch issues its ranges back to back on
						// the pipelined connection.
						visited := uint64(0)
						for j := 0; j < cfg.batch; j++ {
							lo := keygen.Draw(rng)
							res, _, err := cl.Range(wireClass, lo, spanHi(lo, cfg.span), 0)
							if err != nil {
								return visited, err
							}
							visited += uint64(len(res))
						}
						return max(visited, 1), nil
					case workload.OpGet:
						for j := range keys {
							keys[j] = keygen.Draw(rng)
						}
						if _, _, err := cl.MultiGet(wireClass, keys); err != nil {
							return 0, err
						}
					default:
						for j := range kvs {
							kvs[j] = shardedkv.Pair{Key: keygen.Draw(rng), Value: val}
						}
						if _, err := cl.MultiPut(wireClass, kvs); err != nil {
							return 0, err
						}
					}
					return uint64(cfg.batch), nil
				}
				k := keygen.Draw(rng)
				switch kind {
				case workload.OpScan:
					res, _, err := cl.Range(wireClass, k, spanHi(k, cfg.span), 0)
					if err != nil {
						return 0, err
					}
					return max(uint64(len(res)), 1), nil
				case workload.OpGet:
					if _, _, err := cl.Get(wireClass, k); err != nil {
						return 0, err
					}
				default:
					if _, err := cl.Put(wireClass, k, val); err != nil {
						return 0, err
					}
				}
				return 1, nil
			}
			for !stop.Load() {
				s := time.Now()
				n, err := doOp()
				lat := int64(time.Since(s))
				if err != nil {
					if kvclient.IsAdmissionRejected(err) {
						rejected.Add(1)
						n = max(n, 1)
					} else {
						// Connection-level failure: a silently thinner
						// worker pool would make the row's record a
						// lie, so the death is counted and fails the
						// row after the run.
						dead.Add(1)
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
				if recording.Load() {
					rec.RecordBatch(class, lat, n)
				}
			}
		}(i, class, wireClass, cl)
	}
	time.Sleep(cfg.warmup)
	recording.Store(true)
	time.Sleep(cfg.dur)
	stop.Store(true)
	wg.Wait()
	if d := dead.Load(); d > 0 {
		err := fmt.Errorf("%d of %d workers lost their connection", d, cfg.threads)
		if ep := firstErr.Load(); ep != nil {
			err = fmt.Errorf("%v (first: %w)", err, *ep)
		}
		return stats.Summary{}, nil, err
	}

	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	sstats, err := clients[0].Stats()
	if err != nil {
		return merged.Summarize(name, cfg.dur), nil, fmt.Errorf("server stats: %w", err)
	}
	if remoteAddr != "" {
		// A shared external server's cumulative counters cover other
		// clients and earlier rows too: rejections are re-scoped to
		// this run's own client tally, and the wait count — which has
		// no client-side analogue — is dropped rather than reported
		// on the wrong scope.
		sstats.BulkRejected = rejected.Load()
		sstats.BulkWaited = 0
	}
	return merged.Summarize(name, cfg.dur), &sstats, nil
}

// benchRecord is one row of the bench trajectory: CI appends these to
// BENCH_kvbench.json per commit, so the file accumulates a
// throughput/latency history the next PR can diff against.
type benchRecord struct {
	Commit    string  `json:"commit"`
	Time      string  `json:"time"`
	Engine    string  `json:"engine"`
	Mix       string  `json:"mix"`
	Lock      string  `json:"lock"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P99Ns     int64   `json:"p99"`
	// OpsPerLockTake is the combining ratio of the historical pipe-*
	// rows. No current row sets it; the field stays so appending to the
	// trajectory round-trips the old records unchanged.
	OpsPerLockTake float64 `json:"ops_per_lock_take,omitempty"`
	// OpsPerFsync/Fsyncs are the wal-* rows' group-commit amortisation:
	// records appended per fsync, and the fsync count itself.
	OpsPerFsync float64 `json:"ops_per_fsync,omitempty"`
	Fsyncs      uint64  `json:"fsyncs,omitempty"`
	// Splits/ReshardEvents/Shards are the rs-* rows' resharding
	// trajectory: shards split, detector windows that split something,
	// and the final live shard count.
	Splits        uint64 `json:"splits,omitempty"`
	ReshardEvents uint64 `json:"reshard_events,omitempty"`
	Shards        int    `json:"shards,omitempty"`
	// BiasAdoptions/BiasRevocations/BiasFastAcquires are the bias-*
	// and rs-bias-* rows' biased-lock trajectory: cookies minted,
	// cookies torn down through the revocation handshake (splits and
	// foreign traffic both land here), and owner acquisitions that
	// touched only the plain-atomic fast path — no contended RMW.
	BiasAdoptions    uint64 `json:"bias_adoptions,omitempty"`
	BiasRevocations  uint64 `json:"bias_revocations,omitempty"`
	BiasFastAcquires uint64 `json:"bias_fast_acquires,omitempty"`
	// P99InteractiveNs/P99BulkNs are the net-* rows' per-SLO-class
	// client-side tails, OpsInteractive/OpsBulk the per-class measured
	// op counts; BulkWaited counts bulk admissions that queued at the
	// gate and BulkRejected the requests it shed.
	P99InteractiveNs int64  `json:"p99_interactive,omitempty"`
	P99BulkNs        int64  `json:"p99_bulk,omitempty"`
	OpsInteractive   uint64 `json:"ops_interactive,omitempty"`
	OpsBulk          uint64 `json:"ops_bulk,omitempty"`
	BulkWaited       uint64 `json:"bulk_waited,omitempty"`
	BulkRejected     uint64 `json:"bulk_rejected,omitempty"`
}

// currentCommit resolves the commit id stamped into trajectory
// records: GITHUB_SHA in CI, git itself locally, "unknown" otherwise.
func currentCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// appendRecords loads the JSON array at path (missing or empty file =
// empty trajectory), appends recs, and writes it back.
func appendRecords(path string, recs []benchRecord) error {
	var all []benchRecord
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if uerr := json.Unmarshal(data, &all); uerr != nil {
			return fmt.Errorf("existing trajectory %s is not a record array: %w", path, uerr)
		}
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	all = append(all, recs...)
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitRow recovers (engine, mix, lock) from the "engine/mix/lock" row
// name built in main's grid loop.
func splitRow(name string) (engine, mix, lock string) {
	parts := strings.SplitN(name, "/", 3)
	for len(parts) < 3 {
		parts = append(parts, "")
	}
	return parts[0], parts[1], parts[2]
}

// pick filters specs by a comma-separated name list ("all" keeps all).
func pick[T any](sel string, specs []T, name func(T) string) ([]T, error) {
	if sel == "all" || sel == "" {
		return specs, nil
	}
	var out []T
	for _, want := range strings.Split(sel, ",") {
		found := false
		for _, s := range specs {
			if name(s) == strings.TrimSpace(want) {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown name %q", want)
		}
	}
	return out, nil
}

func main() {
	engines := flag.String("engines", "all", "comma list of hashkv|btree|skiplist|lsm, or all")
	mixes := flag.String("mixes", "all", "comma list of read|write|zipf|zipfw|batch|scan|scanbatch, or all")
	lockSel := flag.String("locks", "asl,mutex", "comma list of asl|asl-blocking|mutex|mcs|pthread, or all")
	reshard := flag.Bool("reshard", false, "also run rs-<lock> rows with the skew detector splitting hot shards mid-run")
	walRows := flag.Bool("wal", false, "also run wal-<lock> rows on a durable store: per-shard write-ahead logs with group commit; rows report ops_per_fsync")
	bias := flag.Bool("bias", false, "also run bias-<lock> (and, with -reshard, rs-bias-<lock>) rows with biased shard locks: the dominant taker is adopted as single owner until revoked; rows report bias_adoptions/bias_revocations")
	netMode := flag.Bool("net", false, "run the grid over the wire: net-<lock> rows drive an in-process kvserver through kvclient connections (big workers interactive, little workers bulk)")
	netAddr := flag.String("netaddr", "", "with -net: drive an EXTERNAL kvserver at this address instead (one remote/<mix>/net-remote row per mix; engine and lock are the server's)")
	netConns := flag.Int("netconns", 0, "with -net: client connections shared by the workers; 0 = one per worker")
	sloBulk := flag.Duration("slobulk", 2*time.Millisecond, "with -net: bulk-class epoch SLO on the served store (asl locks); 0 disables")
	bulkInflight := flag.Int("bulkinflight", 0, "with -net: per-shard bulk admission bound (0 = server default, negative disables the gate)")
	skew := flag.Float64("skew", 1.2, "reshard skew factor: a shard splits after sustaining this multiple of its fair ops share")
	jsonPath := flag.String("json", "", "append one {commit, engine, mix, lock, ops_per_sec, p99} record per row to this JSON file")
	shards := flag.Int("shards", 16, "shard count")
	threads := flag.Int("threads", 8, "total workers (first -bigs are big-class)")
	bigs := flag.Int("bigs", 4, "big-class workers")
	dur := flag.Duration("dur", 500*time.Millisecond, "measured duration per configuration")
	warmup := flag.Duration("warmup", 100*time.Millisecond, "unrecorded warmup before measurement")
	slo := flag.Duration("slo", 100*time.Microsecond, "epoch SLO for asl locks; negative disables epochs")
	keys := flag.Uint64("keys", 1<<16, "keyspace size")
	vsize := flag.Int("vsize", 64, "value size in bytes")
	batch := flag.Int("batch", 16, "keys (or ranges) per batched operation")
	span := flag.Uint64("span", 256, "key width of each range for the scan mixes")
	zipfS := flag.Float64("zipf", 0.99, "zipfian theta for the zipf mix")
	ncsGap := flag.Duration("ncs", 500*time.Nanosecond, "big-core inter-op gap (littles scaled by the shim)")
	csPad := flag.Duration("cs", 300*time.Nanosecond, "big-core critical-section pad (littles scaled by the shim); 0 disables")
	shardstats := flag.Bool("shardstats", false, "dump per-shard op counts for the last configuration")
	flag.Parse()

	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "kvbench: -batch must be >= 1 (got %d)\n", *batch)
		os.Exit(2)
	}
	if *span < 1 {
		fmt.Fprintf(os.Stderr, "kvbench: -span must be >= 1 (got %d)\n", *span)
		os.Exit(2)
	}
	if *zipfS <= 0 || *zipfS >= 1 {
		fmt.Fprintf(os.Stderr, "kvbench: -zipf theta must be in (0, 1) (got %g)\n", *zipfS)
		os.Exit(2)
	}
	engs, err := pick(*engines, shardedkv.AllEngines(), func(e shardedkv.EngineSpec) string { return e.Name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -engines: %v\n", err)
		os.Exit(2)
	}
	mxs, err := pick(*mixes, allMixes(), func(m mixSpec) string { return m.name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -mixes: %v\n", err)
		os.Exit(2)
	}
	lks, err := pick(*lockSel, allLocks(), func(l lockSpec) string { return l.name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -locks: %v\n", err)
		os.Exit(2)
	}
	if *netMode {
		if *reshard || *walRows || *bias {
			fmt.Fprintln(os.Stderr, "kvbench: -reshard/-wal/-bias rows are local-only; ignoring them under -net")
		}
		lks = expandNetLocks(lks)
		if *netAddr != "" {
			// The external server fixes engine and lock; one row per mix.
			engs = []shardedkv.EngineSpec{{Name: "remote"}}
			lks = []lockSpec{{name: "net-remote", net: true}}
		}
	} else {
		lks = expandLocks(lks, *reshard, *walRows, *bias)
	}
	if *skew <= 1 {
		fmt.Fprintf(os.Stderr, "kvbench: -skew must be > 1 (got %g)\n", *skew)
		os.Exit(2)
	}

	cal := workload.Calibrate()
	fmt.Fprintf(os.Stderr, "calibration: %.2f ns/spin-unit\n", cal.NsPerUnit)
	cfg := benchConfig{
		shards:       *shards,
		threads:      *threads,
		bigs:         *bigs,
		dur:          *dur,
		warmup:       *warmup,
		slo:          int64(*slo),
		keys:         *keys,
		vsize:        *vsize,
		batch:        *batch,
		span:         *span,
		zipfS:        *zipfS,
		ncsUnits:     cal.Units(*ncsGap),
		skew:         *skew,
		sloBulk:      *sloBulk,
		bulkInflight: *bulkInflight,
		netConns:     *netConns,
	}
	if *csPad > 0 {
		cfg.csUnits = cal.Units(*csPad)
	}

	commit := ""
	if *jsonPath != "" {
		commit = currentCommit()
	}
	var records []benchRecord
	var lastShards []shardedkv.ShardStats
	for _, eng := range engs {
		var rows []stats.Summary
		for _, mix := range mxs {
			for _, lk := range lks {
				mixName := mix.name
				if mix.batched {
					// Make the request size visible: P99 is per
					// batch request, ops/s is per key.
					mixName = fmt.Sprintf("%s%d", mix.name, cfg.batch)
				}
				name := fmt.Sprintf("%s/%s/%s", eng.Name, mixName, lk.name)
				var row stats.Summary
				var shardStats []shardedkv.ShardStats
				var rs *shardedkv.ReshardStats
				var ws *wal.Stats
				var bs *locks.BiasStats
				var sstats *kvserver.ServerStats
				if lk.net {
					var err error
					row, sstats, err = runNet(name, eng, mix, lk, cfg, *netAddr)
					if err != nil {
						fmt.Fprintf(os.Stderr, "kvbench: -net %s: %v\n", name, err)
						os.Exit(1)
					}
				} else {
					row, shardStats, rs, ws, bs = run(name, eng, mix, lk, cfg)
					lastShards = shardStats
				}
				rows = append(rows, row)
				fmt.Fprintf(os.Stderr, "done: %s\n", name)
				if sstats != nil {
					fmt.Fprintf(os.Stderr,
						"  net: interactive p99 %s / bulk p99 %s (server-side %s / %s; bulk waited %d, rejected %d, shards %d)\n",
						time.Duration(row.BigP99), time.Duration(row.LittleP99),
						time.Duration(sstats.Interactive.P99Ns), time.Duration(sstats.Bulk.P99Ns),
						sstats.BulkWaited, sstats.BulkRejected, sstats.Shards)
				}
				if rs != nil {
					fmt.Fprintf(os.Stderr,
						"  reshard: %d splits over %d events, %d -> %d shards (map epoch %d)\n",
						rs.Splits, rs.Events, cfg.shards, rs.Shards, rs.Epoch)
				}
				if ws != nil {
					fmt.Fprintf(os.Stderr,
						"  wal: %d records / %d fsyncs = %.2f ops/fsync (%d rotations, %d bytes)\n",
						ws.Appended, ws.Syncs, ws.OpsPerFsync(), ws.Rotations, ws.Bytes)
				}
				if bs != nil {
					fmt.Fprintf(os.Stderr,
						"  bias: %d adoptions / %d revocations, %d fast + %d slow acquires (%d foreign tries)\n",
						bs.Adoptions, bs.Revocations, bs.FastAcquires, bs.SlowAcquires, bs.ForeignTries)
				}
				if *jsonPath != "" {
					engine, mixCol, lockCol := splitRow(name)
					rec := benchRecord{
						Commit:    commit,
						Time:      time.Now().UTC().Format(time.RFC3339),
						Engine:    engine,
						Mix:       mixCol,
						Lock:      lockCol,
						OpsPerSec: row.Throughput,
						P99Ns:     row.OverallP99,
					}
					if rs != nil {
						rec.Splits = rs.Splits
						rec.ReshardEvents = rs.Events
						rec.Shards = rs.Shards
					}
					if ws != nil {
						rec.OpsPerFsync = ws.OpsPerFsync()
						rec.Fsyncs = ws.Syncs
					}
					if bs != nil {
						rec.BiasAdoptions = bs.Adoptions
						rec.BiasRevocations = bs.Revocations
						rec.BiasFastAcquires = bs.FastAcquires
					}
					if sstats != nil {
						rec.P99InteractiveNs = row.BigP99
						rec.P99BulkNs = row.LittleP99
						rec.OpsInteractive = row.BigOps
						rec.OpsBulk = row.LittleOps
						rec.BulkWaited = sstats.BulkWaited
						rec.BulkRejected = sstats.BulkRejected
						rec.Shards = sstats.Shards
					}
					records = append(records, rec)
				}
			}
		}
		fmt.Print(stats.FormatSummaries(rows))
	}
	if *jsonPath != "" {
		if err := appendRecords(*jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "appended %d records to %s (commit %s)\n", len(records), *jsonPath, commit)
	}
	if *shardstats && lastShards != nil {
		fmt.Println("per-shard counters (last configuration):")
		for i, s := range lastShards {
			fmt.Printf("shard %2d: gets=%d puts=%d deletes=%d scans=%d batchLocks=%d\n",
				i, s.Gets, s.Puts, s.Deletes, s.Scans, s.BatchLocks)
		}
	}
}
