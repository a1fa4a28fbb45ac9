package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/storage"
)

func TestEngineWrapperKeepsCapabilities(t *testing.T) {
	tr := newTracer(time.Now(), 1)
	lock := &tracedLock{inner: locks.FactorySyncMutex()(), t: tr}
	for _, c := range []struct {
		name               string
		eng                shardedkv.Engine
		batch, scan, snaps bool
	}{
		{"hashkv", shardedkv.NewHashEngine(0), true, true, false},
		{"lsm", shardedkv.NewLSMEngine(1, 0), false, false, true},
		{"btree", shardedkv.NewBTreeEngine(), false, false, false},
		{"skiplist", shardedkv.NewSkiplistEngine(1), false, false, false},
	} {
		e := wrapEngine(c.eng, tr, lock)
		_, br := e.(batchRanger)
		_, sc := e.(scanner)
		_, sn := e.(storage.Snapshotter)
		_, cp := e.(storage.Compactor)
		if br != c.batch || sc != c.scan || sn != c.snaps || cp != c.snaps {
			t.Errorf("%s: wrapped engine has batch-range=%v scan=%v snapshot=%v compact=%v, want %v %v %v %v",
				c.name, br, sc, sn, cp, c.batch, c.scan, c.snaps, c.snaps)
		}
	}
}

// TestTracedStoreAnswersAlike runs the same operations on a plain and a
// traced store, with tracing on, and compares every answer.
func TestTracedStoreAnswersAlike(t *testing.T) {
	for _, eng := range []string{"hashkv", "lsm"} {
		tr := newTracer(time.Now(), 1<<12)
		tr.on.Store(true)
		cfg := shardedkv.Config{Shards: 4, NewEngine: engineSpec(eng), NewLock: locks.FactoryASL()}
		plain, traced := shardedkv.New(cfg), shardedkv.New(storeConfig(cfg, tr))
		w := core.NewWorker(core.WorkerConfig{Class: core.Little})
		for k := uint64(0); k < 2000; k += 3 {
			v := fill(make([]byte, valueSize), k, preloadVersion())
			plain.Put(w, k, v)
			traced.Put(w, k, v)
		}
		id := tr.beginRoot(1, false)
		reqs := []shardedkv.RangeReq{{Lo: 10, Hi: 400}, {Lo: 900, Hi: 1200}}
		a, b := plain.MultiRange(w, reqs), traced.MultiRange(w, reqs)
		tr.endRoot(1, id, 0, tr.now())
		for i := range reqs {
			if len(a[i]) != len(b[i]) || len(a[i]) == 0 {
				t.Fatalf("%s: MultiRange %d returned %d pairs traced, %d plain", eng, i, len(b[i]), len(a[i]))
			}
			for j := range a[i] {
				if a[i][j].Key != b[i][j].Key {
					t.Fatalf("%s: MultiRange %d differs at %d", eng, i, j)
				}
			}
		}
		if tr.rangeCalls.Load() == 0 || tr.acquires[1].Load() == 0 {
			t.Errorf("%s: traced MultiRange recorded no engine range calls or lock acquisitions", eng)
		}
		if len(tr.recorded()) == 0 {
			t.Errorf("%s: sampled request recorded no spans", eng)
		}
	}
}

func TestLockWrapperForwardsTryAcquire(t *testing.T) {
	tr := newTracer(time.Now(), 16)
	tr.on.Store(true)
	l := &tracedLock{inner: locks.FactoryASL()(), t: tr}
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if !l.TryAcquire(w) {
		t.Fatal("TryAcquire of a free lock failed")
	}
	if l.TryAcquire(core.NewWorker(core.WorkerConfig{Class: core.Little})) {
		t.Fatal("TryAcquire of a held lock succeeded")
	}
	l.Release(w)
	if n := tr.acquires[0].Load() + tr.acquires[1].Load(); n != 0 {
		t.Fatalf("TryAcquire was counted as %d acquisitions", n)
	}
	if len(tr.recorded()) != 0 {
		t.Fatal("TryAcquire recorded spans")
	}
	l.Acquire(w)
	l.Release(w)
	if tr.acquires[0].Load() != 1 {
		t.Fatal("Acquire was not counted")
	}
}

func TestCheckerRejectsCorruptValues(t *testing.T) {
	c := newChecker(128)
	ver := c.nextVersion(writerBulk)
	good := fill(make([]byte, valueSize), 7, ver)
	if err := c.checkRead(7, good, true, true); err != nil {
		t.Fatalf("good value rejected: %v", err)
	}
	if err := c.checkRead(7, nil, false, false); err != nil {
		t.Fatalf("never-written key reported missing: %v", err)
	}
	corrupt := func(f func(v []byte) []byte) []byte {
		return f(fill(make([]byte, valueSize), 7, ver))
	}
	for name, v := range map[string][]byte{
		"other key":        fill(make([]byte, valueSize), 8, ver),
		"short":            good[:16],
		"flipped padding":  corrupt(func(v []byte) []byte { v[40] ^= 1; return v }),
		"flipped key byte": corrupt(func(v []byte) []byte { v[0] ^= 1; return v }),
		"unissued version": fill(make([]byte, valueSize), 7, ver+1),
		"bad writer":       fill(make([]byte, valueSize), 7, numWriters<<48|1),
	} {
		var ce *checkError
		if err := c.checkRead(7, v, true, true); !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want a check failure", name, err)
		}
	}
	var ce *checkError
	if err := c.checkRead(7, nil, false, true); !errors.As(err, &ce) {
		t.Errorf("written key read as missing: got %v, want a check failure", err)
	}
}

func shortOpts(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 1, trace: trace, dir: t.TempDir(), warmup: 100 * time.Millisecond}
}

// TestCorruptedReadFailsRun corrupts the hottest keys under a set-up
// wire-mixed store and checks that the run fails its output check.
func TestCorruptedReadFailsRun(t *testing.T) {
	s, err := findSpec("wire-mixed")
	if err != nil {
		t.Fatal(err)
	}
	o := shortOpts(t, s.name, false)
	e, _, err := setUp(o, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 64; k++ {
		v := fill(make([]byte, valueSize), k, preloadVersion())
		v[valueSize-1] = 0xff
		e.store.Put(w, k, v)
	}
	_, err = measure(o, s, e, nil, time.Second)
	e.close()
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("run over corrupted values returned %v, want a check failure", err)
	}
}

// TestSmokeEveryMetric runs every workload briefly, untraced and
// traced, and checks that every named metric is emitted.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(shortOpts(t, s.name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", s.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.name, m.Value)
				}
			}
			if trace {
				checkLayerRan(t, s.name, res.Metrics)
			}
		}
	}
}

// checkLayerRan checks that the layers a workload runs report nonzero
// figures.
func checkLayerRan(t *testing.T, name string, m map[string]metricValue) {
	t.Helper()
	nonzero := []string{"self.root_us", "lock.acquires_per_op", "lock.hold_p50_ns", "engine.op_p50_ns",
		"shardedkv.hot_shard_share", "runtime.heap_live_mb", "trace.traced_throughput_ops", "trace.sampled_requests"}
	switch name {
	case "wire-mixed":
		nonzero = append(nonzero, "kvclient.rtt_p50_us", "kvclient.bytes_per_req", "kvserver.exec_bulk_p50_us", "shardedkv.locks_per_batch")
	case "amp-hotshard":
		nonzero = append(nonzero, "shardedkv.call_p50_us", "shardedkv.self_share", "core.reorder_window_us", "self.cspad_us")
	case "durable-lsm":
		nonzero = append(nonzero, "kvclient.rtt_p50_us", "wal.ops_per_fsync", "wal.fsync_p50_us", "wal.recovery_s",
			"wal.bytes_per_user_byte", "engine.range_pairs_per_call", "self.wal_us")
	}
	for _, n := range nonzero {
		if m[n].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, n, m[n].Value)
		}
	}
	for n, v := range m {
		share := strings.HasSuffix(n, "_share") && n != "trace.overhead_share"
		if (share || strings.HasSuffix(n, "_ratio")) && (v.Value < 0 || v.Value > 1) {
			t.Errorf("%s: %s = %v, outside [0, 1]", name, n, v.Value)
		}
	}
	var parts float64
	for _, row := range []string{"self.conn_us", "self.lock_us", "self.cspad_us", "self.engine_us", "self.wal_us", "self.unattributed_us"} {
		parts += m[row].Value
	}
	if root := m["self.root_us"].Value; !near(parts, root) {
		t.Errorf("%s: self rows add to %v, root is %v", name, parts, root)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names workloads
// this program runs and exactly the metrics it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: %s (%s) in BENCHMARK.json, %s (%s) in program", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
