package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
	"repro/internal/wal"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 5}, {99, 10}, {10, 1}, {100, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64(nil), 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestRecorderWindow(t *testing.T) {
	// One window of 100 ns starting at 1000; a warm-up request is
	// dropped, a failed one counts as attempted but not completed and
	// sorts above every latency.
	r := newRecorder(1000, 1)
	r.add(900, 950, 1, false) // warm-up
	for i := int64(0); i < 10; i++ {
		r.add(1000+i, 1000+i+10*(i+1), 2, false)
	}
	r.add(1060, 1070, 1, true)
	cs := summarize(r, 100)
	if cs.reqs != 11 || cs.fails != 1 || cs.ops != 20 || cs.samples != 11 {
		t.Fatalf("reqs/fails/ops/samples = %d/%d/%d/%d", cs.reqs, cs.fails, cs.ops, cs.samples)
	}
	if len(cs.rates) != 1 || !near(cs.rates[0], 20/100e-9) {
		t.Fatalf("rates = %v", cs.rates)
	}
	// Latencies 10..100 ns and the failed request: p50 60 ns, p99 the
	// failed request.
	if len(cs.p50s) != 1 || !near(cs.p50s[0], 0.06) {
		t.Fatalf("p50s = %v us", cs.p50s)
	}
	if len(cs.p99s) != 1 || !near(cs.p99s[0], latencyUs(failedLatency)) {
		t.Fatalf("p99s = %v us", cs.p99s)
	}
	var pooled classStats
	pooled.merge(cs)
	pooled.merge(cs)
	if len(pooled.rates) != 2 || pooled.reqs != 22 || pooled.ops != 40 || pooled.samples != 2*cs.samples {
		t.Fatalf("merged stats = %+v", pooled)
	}
	if r.grown == 0 {
		t.Fatal("growth past the initial capacity was not accounted")
	}
}

func TestPoolWindows(t *testing.T) {
	win := func(tput float64, gc float64, p50 int64, shardOps uint64) phase {
		return phase{
			totals:     []float64{tput},
			measuredNs: 100,
			allocBytes: 10,
			rt:         runtimeDelta{allocObjs: 2, gcCPUShare: gc},
			shards:     []shardedkv.ShardStats{{Puts: shardOps}, {Gets: 1}},
			wal:        wal.Stats{Appended: 4, Syncs: 2},
			server: &kvserver.ServerStats{
				Interactive: kvserver.ClassServerStats{P50Ns: p50, Errors: 1},
				BulkWaited:  3,
			},
			recoveryS: gc,
		}
	}
	p := pool([]phase{win(30, 0.3, 300, 5), win(10, 0.1, 100, 1), win(20, 0.2, 200, 3)})
	// Counts add up.
	if p.measuredNs != 300 || p.allocBytes != 30 || p.rt.allocObjs != 6 || p.wal.Appended != 12 || p.wal.Syncs != 6 {
		t.Fatalf("summed counts = %+v", p)
	}
	if len(p.shards) != 2 || p.shards[0].Puts != 9 || p.shards[1].Gets != 3 {
		t.Fatalf("summed shards = %+v", p.shards)
	}
	if p.server.Interactive.Errors != 3 || p.server.BulkWaited != 9 {
		t.Fatalf("summed server counts = %+v", p.server)
	}
	// Per-window figures are medians.
	if p.throughput() != 20 || !near(p.rt.gcCPUShare, 0.2) || p.server.Interactive.P50Ns != 200 || !near(p.recoveryS, 0.2) {
		t.Fatalf("medians: throughput %v, gc %v, server p50 %v, recovery %v",
			p.throughput(), p.rt.gcCPUShare, p.server.Interactive.P50Ns, p.recoveryS)
	}
	if got := rangeShare(p.totals); !near(got, 1) {
		t.Fatalf("rangeShare = %v, want (30-10)/20", got)
	}
}

func TestSelfTimesPartition(t *testing.T) {
	root := span{start: 0, end: 100, parent: 1, kind: kindRoot}
	kids := []span{
		{start: -5, end: 10, kind: kindConnWrite},      // clipped to the root
		{start: 20, end: 30, kind: kindLockAcquire},    // lock
		{start: 30, end: 50, kind: kindEngine},         // engine, minus the pad inside it
		{start: 40, end: 45, kind: kindCSPad},          // innermost wins
		{start: 30, end: 70, kind: kindLockHold},       // overlaps by design: ignored
		{start: 60, end: 62, kind: kindLockRelease},    // lock
		{start: 95, end: 130, kind: kindWalSync},       // clipped to the root
		{start: 200, end: 300, kind: kindWalWrite},     // outside the root
		{start: 80, end: 80, kind: kindConnWrite},      // empty
		{start: 61, end: 61, kind: kindLockAcquire},    // empty
		{start: 10, end: 10, kind: kindEngine},         // empty
		{start: 96, end: 99, kind: kindWalWrite},       // inside the sync: innermost wins
		{start: 85, end: 90, kind: kindLockAcquire},    // lock
		{start: 85, end: 86, kind: kindLockRelease},    // same start: later in list wins
		{start: 45, end: 50, kind: kindCSPad},          // second pad inside the engine
		{start: 90, end: 95, kind: kindEngine},         // adjacent to the sync
		{start: 50, end: 50, kind: kindRoot},           // a root never takes part
		{start: 0, end: 100, kind: kindLockHold},       // ignored
		{start: 70, end: 71, kind: spanKind(numKinds)}, // unknown kind: ignored
	}
	byKind, un := selfTimes(root, kids)
	want := map[spanKind]int64{
		kindConnWrite:   10,
		kindLockAcquire: 10 + 4,
		kindLockRelease: 2 + 1,
		kindEngine:      10 + 5,
		kindCSPad:       10,
		kindWalSync:     2,
		kindWalWrite:    3,
	}
	var total int64
	for k, v := range byKind {
		total += v
		if v != want[spanKind(k)] {
			t.Errorf("%s self = %d, want %d", kindNames[k], v, want[spanKind(k)])
		}
	}
	if wantUn := int64(100 - 10 - 14 - 3 - 15 - 10 - 2 - 3); un != wantUn {
		t.Errorf("unattributed = %d, want %d", un, wantUn)
	}
	if total+un != root.dur() {
		t.Errorf("self times %d + unattributed %d != root %d", total, un, root.dur())
	}
}

func TestLayerMetricsArithmetic(t *testing.T) {
	tr := newTracer(time.Time{}, 16)
	tr.acquires[0].Store(30)
	tr.acquires[1].Store(10)
	tr.batchReqs.Store(4)
	tr.walBytes.Store(300)
	tr.userBytes.Store(200)
	tr.rangeCalls.Store(2)
	tr.rangePairs.Store(64)
	tr.epochs, tr.miss, tr.windowNs = 200, 3, []int64{5000, 1000, 3000}
	spans := []span{
		// Request 1: 100 ns, 20 waiting, 30 holding, 10 releasing.
		{start: 0, end: 100, parent: 1, kind: kindRoot},
		{start: 0, end: 20, parent: 1, kind: kindLockAcquire},
		{start: 20, end: 50, parent: 1, kind: kindLockHold},
		{start: 20, end: 40, parent: 1, kind: kindEngine},
		{start: 50, end: 60, parent: 1, kind: kindLockRelease},
		// Request 2: 300 ns, bulk, 60 waiting.
		{start: 1000, end: 1300, parent: 2, kind: kindRoot, class: 1},
		{start: 1000, end: 1060, parent: 2, kind: kindLockAcquire, class: 1},
		// Two overlapping fsyncs and one unparented: union 150 ns.
		{start: 0, end: 100, kind: kindWalSync},
		{start: 50, end: 120, kind: kindWalSync},
		{start: 500, end: 530, kind: kindWalSync},
	}
	m := layerMetrics(layerInputs{
		spans: spans, tr: tr, ops: 80, reqs: 20, windowNs: 1500,
		untraced: 1000, untracedSpread: 0.05, traced: 900, direct: true,
		shards: []shardedkv.ShardStats{{Gets: 10, Puts: 50}, {Gets: 20, Puts: 20}, {Puts: 20, BatchLocks: 6}},
		wal:    wal.Stats{Appended: 30, Syncs: 3}, recoveryS: 0.5,
		rt: runtimeDelta{allocObjs: 160},
	})
	want := map[string]float64{
		"self.root_us":                   (100 + 300) / 2 / 1e3,
		"self.lock_us":                   (20 + 10 + 60) / 2.0 / 1e3,
		"self.engine_us":                 20 / 2.0 / 1e3,
		"self.unattributed_us":           (100 - 50 + 300 - 60) / 2.0 / 1e3,
		"self.wal_us":                    0, // the fsyncs belong to no sampled request
		"shardedkv.call_p50_us":          0.1,
		"shardedkv.self_share":           (400.0 - 80 - 30 - 10) / 400,
		"shardedkv.hot_shard_share":      60.0 / 120,
		"shardedkv.locks_per_batch":      6.0 / 4,
		"lock.acquires_per_op":           40.0 / 80,
		"lock.wait_p50_ns":               20,
		"lock.wait_interactive_p99_ns":   20,
		"lock.wait_bulk_p99_ns":          60,
		"lock.hold_p50_ns":               30,
		"lock.wait_share":                80.0 / 400,
		"lock.interactive_acquire_share": 30.0 / 40,
		"core.reorder_window_us":         3,
		"core.epoch_slo_miss_ratio":      3.0 / 200,
		"engine.op_p50_ns":               20,
		"engine.range_pairs_per_call":    32,
		"wal.ops_per_fsync":              10,
		"wal.fsync_p50_us":               0.07,
		"wal.fsync_busy_share":           150.0 / 1500,
		"wal.bytes_per_user_byte":        1.5,
		"wal.recovery_s":                 0.5,
		"runtime.allocs_per_op":          2,
		"trace.overhead_share":           0.1,
		"trace.untraced_spread":          0.05,
		"trace.sampled_requests":         2,
		"kvclient.rtt_p50_us":            0, // direct Store calls: no wire
	}
	for name, w := range want {
		if got, ok := m[name]; !ok || !near(got, w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	var parts float64
	for _, row := range []string{"self.conn_us", "self.lock_us", "self.cspad_us", "self.engine_us", "self.wal_us", "self.unattributed_us"} {
		parts += m[row]
	}
	if !near(parts, m["self.root_us"]) {
		t.Errorf("self rows add to %v, root is %v", parts, m["self.root_us"])
	}
}
