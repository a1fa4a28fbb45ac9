package main

import (
	"cmp"
	"slices"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
	"repro/internal/wal"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in output order.
var endToEnd = []metricDef{
	{"throughput_ops", "ops/s"},
	{"interactive_throughput_ops", "ops/s"},
	{"bulk_throughput_ops", "ops/s"},
	{"interactive_p50_us", "us"},
	{"interactive_p99_us", "us"},
	{"bulk_p50_us", "us"},
	{"bulk_p99_us", "us"},
	{"success_ratio", "ratio"},
	{"alloc_bytes_per_op", "B/op"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports, in output order. A
// layer that is not on a workload's path reports 0 for its metrics.
var perLayer = []metricDef{
	{"kvclient.rtt_p50_us", "us"},
	{"kvclient.writes_per_req", "count"},
	{"kvclient.bytes_per_req", "B"},
	{"kvserver.exec_interactive_p50_us", "us"},
	{"kvserver.exec_interactive_p99_us", "us"},
	{"kvserver.exec_bulk_p50_us", "us"},
	{"kvserver.exec_bulk_p99_us", "us"},
	{"kvserver.wire_share", "ratio"},
	{"kvserver.admission_waited", "count"},
	{"kvserver.admission_rejected", "count"},
	{"kvserver.errors", "count"},
	{"shardedkv.call_p50_us", "us"},
	{"shardedkv.self_share", "ratio"},
	{"shardedkv.hot_shard_share", "ratio"},
	{"shardedkv.locks_per_batch", "count"},
	{"lock.acquires_per_op", "count"},
	{"lock.wait_p50_ns", "ns"},
	{"lock.wait_interactive_p99_ns", "ns"},
	{"lock.wait_bulk_p99_ns", "ns"},
	{"lock.hold_p50_ns", "ns"},
	{"lock.wait_share", "ratio"},
	{"lock.interactive_acquire_share", "ratio"},
	{"core.reorder_window_us", "us"},
	{"core.epoch_slo_miss_ratio", "ratio"},
	{"engine.op_p50_ns", "ns"},
	{"engine.op_p99_ns", "ns"},
	{"engine.range_pairs_per_call", "count"},
	{"wal.ops_per_fsync", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.fsync_busy_share", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.recovery_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.heap_live_mb", "MB"},
	{"self.root_us", "us"},
	{"self.conn_us", "us"},
	{"self.lock_us", "us"},
	{"self.cspad_us", "us"},
	{"self.engine_us", "us"},
	{"self.wal_us", "us"},
	{"self.unattributed_us", "us"},
	{"trace.untraced_throughput_ops", "ops/s"},
	{"trace.traced_throughput_ops", "ops/s"},
	{"trace.overhead_share", "ratio"},
	{"trace.untraced_spread", "ratio"},
	{"trace.sampled_requests", "count"},
}

// selfLayers maps each span kind that takes part in the self-time
// partition to its self.* row; kinds not listed (the root, and the
// lock hold, which overlaps the engine call it contains) take no part.
var selfLayers = map[spanKind]string{
	kindConnWrite:   "self.conn_us",
	kindLockAcquire: "self.lock_us",
	kindLockRelease: "self.lock_us",
	kindCSPad:       "self.cspad_us",
	kindEngine:      "self.engine_us",
	kindWalWrite:    "self.wal_us",
	kindWalSync:     "self.wal_us",
}

// selfTimes partitions the root's interval among its children: every
// instant goes to the covering child that started last (the innermost
// one), and instants no child covers are the root's own, unattributed
// time. Children are clipped to the root, so the parts always add up
// to the root's duration exactly.
func selfTimes(root span, children []span) (byKind [numKinds]int64, unattributed int64) {
	var kids []span
	points := []int64{root.start, root.end}
	for _, c := range children {
		if _, ok := selfLayers[c.kind]; !ok {
			continue
		}
		c.start, c.end = max(c.start, root.start), min(c.end, root.end)
		if c.end <= c.start {
			continue
		}
		kids = append(kids, c)
		points = append(points, c.start, c.end)
	}
	slices.Sort(points)
	points = slices.Compact(points)
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		best := -1
		for j, c := range kids {
			if c.start <= a && c.end >= b && (best < 0 || c.start >= kids[best].start) {
				best = j
			}
		}
		if best < 0 {
			unattributed += b - a
		} else {
			byKind[kids[best].kind] += b - a
		}
	}
	return byKind, unattributed
}

// layerInputs is everything the traced windows measured.
type layerInputs struct {
	spans     []span
	tr        *tracer
	ops, reqs uint64  // ops completed and requests sent in the traced windows
	windowNs  int64   // summed length of the traced windows
	untraced  float64 // throughput_ops of the untraced windows of the same run
	// untracedSpread is the untraced windows' throughput range over
	// their median: an overhead inside it is not resolved.
	untracedSpread float64
	traced         float64 // throughput_ops of the traced windows
	direct         bool    // roots are direct Store calls
	server         *kvserver.ServerStats
	shards         []shardedkv.ShardStats // per-shard counter deltas summed over the traced windows
	wal            wal.Stats              // WAL counter deltas summed over the traced windows
	recoveryS      float64
	rt             runtimeDelta
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(percentile(xs, q))
}

// unionNs is the total length covered by the spans.
func unionNs(ss []span) int64 {
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total, curS, curE int64
	open := false
	for _, s := range ss {
		if !open || s.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = s.start, s.end, true
		} else if s.end > curE {
			curE = s.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerMetrics computes every per-layer metric from the traced windows.
func layerMetrics(in layerInputs) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}

	// Group the spans by the request they belong to.
	byParent := make(map[uint32][]span)
	var roots []span
	var durs [numKinds][]int64
	var waitByClass [2][]int64
	var walSyncs []span
	for _, s := range in.spans {
		durs[s.kind] = append(durs[s.kind], s.dur())
		switch s.kind {
		case kindRoot:
			roots = append(roots, s)
			continue
		case kindLockAcquire:
			waitByClass[s.class] = append(waitByClass[s.class], s.dur())
		case kindWalSync:
			walSyncs = append(walSyncs, s)
		}
		if s.parent != 0 {
			byParent[s.parent] = append(byParent[s.parent], s)
		}
	}
	for k := range durs {
		slices.Sort(durs[k])
	}
	for c := range waitByClass {
		slices.Sort(waitByClass[c])
	}

	// Self-time partition of every sampled request, and the sums the
	// share metrics divide.
	var rootSum, waitSum, holdSum, releaseSum, unattributed int64
	var self [numKinds]int64
	for _, r := range roots {
		kids := byParent[r.parent]
		byKind, un := selfTimes(r, kids)
		for k, v := range byKind {
			self[k] += v
		}
		unattributed += un
		rootSum += r.dur()
		for _, c := range kids {
			switch c.kind {
			case kindLockAcquire:
				waitSum += c.dur()
			case kindLockHold:
				holdSum += c.dur()
			case kindLockRelease:
				releaseSum += c.dur()
			}
		}
	}
	n := float64(len(roots))
	if n > 0 {
		m["self.root_us"] = float64(rootSum) / n / 1e3
		for k, row := range selfLayers {
			m[row] += float64(self[k]) / n / 1e3
		}
		m["self.unattributed_us"] = float64(unattributed) / n / 1e3
	}
	m["trace.sampled_requests"] = n

	reqs, ops := float64(in.reqs), float64(in.ops)
	t := in.tr
	if in.direct {
		m["shardedkv.call_p50_us"] = p(durs[kindRoot], 50) / 1e3
		m["shardedkv.self_share"] = ratio(float64(rootSum-waitSum-holdSum-releaseSum), float64(rootSum))
	} else {
		m["kvclient.rtt_p50_us"] = p(durs[kindRoot], 50) / 1e3
		m["kvclient.writes_per_req"] = ratio(float64(t.connWrites.Load()), reqs)
		m["kvclient.bytes_per_req"] = ratio(float64(t.connOut.Load()+t.connIn.Load()), reqs)
	}
	if s := in.server; s != nil {
		m["kvserver.exec_interactive_p50_us"] = float64(s.Interactive.P50Ns) / 1e3
		m["kvserver.exec_interactive_p99_us"] = float64(s.Interactive.P99Ns) / 1e3
		m["kvserver.exec_bulk_p50_us"] = float64(s.Bulk.P50Ns) / 1e3
		m["kvserver.exec_bulk_p99_us"] = float64(s.Bulk.P99Ns) / 1e3
		var rootsI []int64
		for _, r := range roots {
			if r.class == 0 {
				rootsI = append(rootsI, r.dur())
			}
		}
		slices.Sort(rootsI)
		if rtt := p(rootsI, 50); rtt > 0 {
			m["kvserver.wire_share"] = 1 - float64(s.Interactive.P50Ns)/rtt
		}
		m["kvserver.admission_waited"] = float64(s.BulkWaited)
		m["kvserver.admission_rejected"] = float64(s.BulkRejected)
		m["kvserver.errors"] = float64(s.Interactive.Errors + s.Bulk.Errors)
	}

	var total, hottest, batchLocks uint64
	for _, sh := range in.shards {
		total += sh.Ops()
		hottest = max(hottest, sh.Ops())
		batchLocks += sh.BatchLocks
	}
	m["shardedkv.hot_shard_share"] = ratio(float64(hottest), float64(total))
	m["shardedkv.locks_per_batch"] = ratio(float64(batchLocks), float64(t.batchReqs.Load()))

	acqI, acqB := float64(t.acquires[0].Load()), float64(t.acquires[1].Load())
	m["lock.acquires_per_op"] = ratio(acqI+acqB, ops)
	m["lock.wait_p50_ns"] = p(durs[kindLockAcquire], 50)
	m["lock.wait_interactive_p99_ns"] = p(waitByClass[0], 99)
	m["lock.wait_bulk_p99_ns"] = p(waitByClass[1], 99)
	m["lock.hold_p50_ns"] = p(durs[kindLockHold], 50)
	m["lock.wait_share"] = ratio(float64(waitSum), float64(rootSum))
	m["lock.interactive_acquire_share"] = ratio(acqI, acqI+acqB)

	w := slices.Clone(t.windowNs)
	slices.Sort(w)
	m["core.reorder_window_us"] = p(w, 50) / 1e3
	m["core.epoch_slo_miss_ratio"] = ratio(float64(t.miss), float64(t.epochs))

	m["engine.op_p50_ns"] = p(durs[kindEngine], 50)
	m["engine.op_p99_ns"] = p(durs[kindEngine], 99)
	m["engine.range_pairs_per_call"] = ratio(float64(t.rangePairs.Load()), float64(t.rangeCalls.Load()))

	m["wal.ops_per_fsync"] = ratio(float64(in.wal.Appended), float64(in.wal.Syncs))
	m["wal.fsync_p50_us"] = p(durs[kindWalSync], 50) / 1e3
	m["wal.fsync_p99_us"] = p(durs[kindWalSync], 99) / 1e3
	m["wal.fsync_busy_share"] = ratio(float64(unionNs(walSyncs)), float64(in.windowNs))
	m["wal.bytes_per_user_byte"] = ratio(float64(t.walBytes.Load()), float64(t.userBytes.Load()))
	m["wal.recovery_s"] = in.recoveryS

	m["runtime.allocs_per_op"] = ratio(float64(in.rt.allocObjs), ops)
	m["runtime.gc_cpu_share"] = in.rt.gcCPUShare
	m["runtime.sched_latency_p99_us"] = in.rt.schedP99us
	m["runtime.heap_live_mb"] = in.rt.heapLiveMB

	m["trace.untraced_throughput_ops"] = in.untraced
	m["trace.traced_throughput_ops"] = in.traced
	m["trace.overhead_share"] = 1 - ratio(in.traced, in.untraced)
	m["trace.untraced_spread"] = in.untracedSpread
	return m
}
