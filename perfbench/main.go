// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the store as it is served, checks every
// output, and prints each metric by name with its unit; the last line
// of standard output is one JSON result. See README.md.
//
//	go run . --workload wire-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
	"repro/internal/wal"
)

// setups is how many times a run sets its workload up. Each set-up is
// timed, warmed up and measured for an equal share of --seconds, and
// each metric is the median over the set-ups' windows. Figures move
// with the set-up (heap and goroutine placement, the spin calibration),
// so spreading the measured time over many set-ups steadies the medians
// more than one long window does.
const setups = 10

// spanCapacity is the traced run's preallocated span buffer.
const spanCapacity = 1 << 20

// warmup is the unmeasured load before the measured window: long
// enough for the reorder windows' AIMD controllers to settle.
const warmup = time.Second

// spansPerRequest is a generous estimate of the spans one request
// records, used to pick the sampling stride that fits the buffer.
const spansPerRequest = 40

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // scratch directory for durable data
	traceOut string // where a traced run writes its spans ("" = nowhere)
	warmup   time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: wire-mixed | amp-hotshard | durable-lsm")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every key and op choice derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench-data"), "scratch directory for durable data")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "perfbench-trace"), "directory a traced run writes its spans to")
	flag.Parse()
	o.warmup = warmup
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			printResult(os.Stdout, result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: res.Metrics})
			os.Exit(1)
		}
		fatalf("%v", err)
	}
	printResult(os.Stdout, res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func printResult(w io.Writer, r result) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(b))
}

// configRecord is printed with every result, so results of different
// configurations are never compared.
func configRecord(o options, s *spec) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			switch {
			case st.Key == "vcs.revision":
				commit = st.Value
			case st.Key == "vcs.modified" && st.Value == "true":
				dirty = true
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return map[string]any{
		"workload":   s.name,
		"params":     s.params,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"warmup":     o.warmup.String(),
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func run(o options, out io.Writer) (result, error) {
	s, err := findSpec(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.dir, s.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	cfg := configRecord(o, s)
	cb, err := json.Marshal(cfg)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v\nconfig %s\n", s.name, o.seed, o.seconds, o.trace, cb)
	if o.trace {
		return runTraced(o, s, cfg, out)
	}
	return runUntraced(o, s, out)
}

// setUp builds the workload once and returns it with the time from the
// start of set-up to the moment its first request can be sent.
func setUp(o options, s *spec, tr *tracer) (*env, float64, error) {
	runtime.GC() // start every set-up from the same heap state
	t := time.Now()
	e, err := s.build(buildOpts{seed: o.seed, dir: o.dir, tr: tr})
	return e, time.Since(t).Seconds(), err
}

func runUntraced(o options, s *spec, out io.Writer) (result, error) {
	var setupS []float64
	var phases []phase
	window := time.Duration(o.seconds) * time.Second / setups
	for range setups {
		ph, secs, err := setUpAndMeasure(o, s, nil, window)
		setupS = append(setupS, secs)
		phases = append(phases, ph)
		if err != nil {
			p := pool(phases)
			return p.result(), err
		}
	}
	ph := pool(phases)
	res := ph.result()
	res.Metrics["setup_s"] = metricValue{median(setupS), "s"}
	printEndToEnd(out, ph, setupS)
	return res, nil
}

// setUpAndMeasure sets the workload up, measures one window on it and
// tears it down. It returns the set-up time with the window.
func setUpAndMeasure(o options, s *spec, tr *tracer, window time.Duration) (phase, float64, error) {
	e, secs, err := setUp(o, s, tr)
	if err != nil {
		return phase{}, secs, fmt.Errorf("set-up: %w", err)
	}
	ph, err := measure(o, s, e, tr, window)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return ph, secs, err
}

// phase is what one or more measured windows recorded.
type phase struct {
	cls        [2]classStats
	totals     []float64 // per window: both classes' ops per second
	allocBytes uint64    // heap bytes allocated by the program under test
	measuredNs int64     // summed length of the windows
	direct     bool      // requests are direct Store calls (no wire)

	// What the layers counted over the windows; a traced run reports
	// them.
	rt        runtimeDelta
	shards    []shardedkv.ShardStats
	wal       wal.Stats
	server    *kvserver.ServerStats
	recoveryS float64
}

// pool merges the windows of several set-ups. Counts add up; figures
// that are already rates or percentiles of one window (the runtime's
// shares, the server's percentiles, recovery time) are medians over
// the windows.
func pool(phs []phase) phase {
	var p phase
	var gcShare, schedP99, heapMB, recovery []float64
	var servers []kvserver.ServerStats
	for _, ph := range phs {
		for c := range p.cls {
			p.cls[c].merge(ph.cls[c])
		}
		p.totals = append(p.totals, ph.totals...)
		p.allocBytes += ph.allocBytes
		p.measuredNs += ph.measuredNs
		p.direct = ph.direct
		p.rt.allocBytes += ph.rt.allocBytes
		p.rt.allocObjs += ph.rt.allocObjs
		gcShare = append(gcShare, ph.rt.gcCPUShare)
		schedP99 = append(schedP99, ph.rt.schedP99us)
		heapMB = append(heapMB, ph.rt.heapLiveMB)
		for i, d := range ph.shards {
			if i == len(p.shards) {
				p.shards = append(p.shards, shardedkv.ShardStats{})
			}
			sh := &p.shards[i]
			sh.Gets += d.Gets
			sh.Puts += d.Puts
			sh.Deletes += d.Deletes
			sh.Scans += d.Scans
			sh.BatchLocks += d.BatchLocks
		}
		p.wal.Appended += ph.wal.Appended
		p.wal.Syncs += ph.wal.Syncs
		p.wal.Rotations += ph.wal.Rotations
		p.wal.Bytes += ph.wal.Bytes
		if ph.server != nil {
			servers = append(servers, *ph.server)
		}
		recovery = append(recovery, ph.recoveryS)
	}
	p.rt.gcCPUShare = median(gcShare)
	p.rt.schedP99us = median(schedP99)
	p.rt.heapLiveMB = median(heapMB)
	p.recoveryS = median(recovery)
	if len(servers) > 0 {
		p.server = poolServers(servers)
	}
	return p
}

// poolServers merges the Stats of several servers: error and admission
// counts add up, latency percentiles are medians.
func poolServers(ss []kvserver.ServerStats) *kvserver.ServerStats {
	var out kvserver.ServerStats
	var pct [4][]int64
	for _, st := range ss {
		out.Interactive.Ops += st.Interactive.Ops
		out.Bulk.Ops += st.Bulk.Ops
		out.Interactive.Errors += st.Interactive.Errors
		out.Bulk.Errors += st.Bulk.Errors
		out.BulkWaited += st.BulkWaited
		out.BulkRejected += st.BulkRejected
		for i, v := range []int64{st.Interactive.P50Ns, st.Interactive.P99Ns, st.Bulk.P50Ns, st.Bulk.P99Ns} {
			pct[i] = append(pct[i], v)
		}
	}
	med := func(xs []int64) int64 {
		slices.Sort(xs)
		return xs[(len(xs)-1)/2]
	}
	out.Interactive.P50Ns, out.Interactive.P99Ns = med(pct[0]), med(pct[1])
	out.Bulk.P50Ns, out.Bulk.P99Ns = med(pct[2]), med(pct[3])
	return &out
}

func (ph *phase) attempted() uint64   { return ph.cls[0].reqs + ph.cls[1].reqs }
func (ph *phase) failed() uint64      { return ph.cls[0].fails + ph.cls[1].fails }
func (ph *phase) ops() uint64         { return ph.cls[0].ops + ph.cls[1].ops }
func (ph *phase) throughput() float64 { return median(ph.totals) }

func (ph *phase) result() result {
	r := result{Correct: true, Attempted: ph.attempted(), Failed: ph.failed(), Metrics: map[string]metricValue{}}
	if len(ph.totals) == 0 {
		return r
	}
	vals := map[string]float64{
		"throughput_ops":             ph.throughput(),
		"interactive_throughput_ops": median(ph.cls[0].rates),
		"bulk_throughput_ops":        median(ph.cls[1].rates),
		"interactive_p50_us":         median(ph.cls[0].p50s),
		"interactive_p99_us":         median(ph.cls[0].p99s),
		"bulk_p50_us":                median(ph.cls[1].p50s),
		"bulk_p99_us":                median(ph.cls[1].p99s),
		"success_ratio":              ratio(float64(ph.attempted()-ph.failed()), float64(ph.attempted())),
		"alloc_bytes_per_op":         ratio(float64(ph.allocBytes), float64(ph.ops())),
	}
	for _, d := range endToEnd {
		if v, ok := vals[d.name]; ok {
			r.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	return r
}

func sleepUntil(base time.Time, at int64) {
	if d := time.Duration(at - int64(time.Since(base))); d > 0 {
		time.Sleep(d)
	}
}

// measure drives the callers in a closed loop: warm-up, then a
// measured window of the given length. With tr set, tracing is on for
// the measured window only.
func measure(o options, s *spec, e *env, tr *tracer, window time.Duration) (phase, error) {
	base := time.Now()
	if tr != nil {
		base = tr.base
	}
	now := func() int64 { return int64(time.Since(base)) }
	t0 := now() + int64(o.warmup)
	winNs := int64(window)
	end := t0 + winNs
	ph := phase{measuredNs: winNs, direct: e.direct, recoveryS: e.recoveryS}
	var recs [2]*recorder
	for c := range recs {
		recs[c] = newRecorder(t0, int(int64(s.rateHint[c])*winNs*5/4/int64(time.Second)))
	}

	var abort atomic.Bool
	var errs [2]error
	var wg sync.WaitGroup
	for c, cl := range e.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := recs[c]
			for !abort.Load() {
				writes := cl.prepare()
				start := now()
				if start >= end {
					return
				}
				id := tr.beginRoot(c, writes)
				ops, failed, err := cl.send()
				stop := now()
				tr.endRoot(c, id, start, stop)
				if err != nil {
					errs[c] = err
					abort.Store(true)
					return
				}
				rec.add(start, stop, ops, failed)
			}
		}()
	}

	sleepUntil(base, t0)
	rtA := readRuntime()
	shA := e.store.Stats()
	walA := e.store.WalStats()
	if tr != nil {
		tr.on.Store(true)
	}
	sleepUntil(base, end)
	if tr != nil {
		tr.on.Store(false)
	}
	rtB := readRuntime()
	shB := e.store.Stats()
	walB := e.store.WalStats()
	wg.Wait()

	if err := errors.Join(errs[0], errs[1]); err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			return ph, ce
		}
		return ph, err
	}
	ph.rt = diffRuntime(rtA, rtB)
	for i := range shB {
		d := shB[i]
		if i < len(shA) {
			d.Gets -= shA[i].Gets
			d.Puts -= shA[i].Puts
			d.Deletes -= shA[i].Deletes
			d.Scans -= shA[i].Scans
			d.BatchLocks -= shA[i].BatchLocks
		}
		ph.shards = append(ph.shards, d)
	}
	ph.wal = wal.Stats{
		Appended:  walB.Appended - walA.Appended,
		Syncs:     walB.Syncs - walA.Syncs,
		Rotations: walB.Rotations - walA.Rotations,
		Bytes:     walB.Bytes - walA.Bytes,
	}
	if e.srv != nil {
		st := e.srv.Stats()
		ph.server = &st
	}
	for c, r := range recs {
		ph.cls[c] = summarize(r, winNs)
	}
	ph.totals = []float64{ph.cls[0].rates[0] + ph.cls[1].rates[0]}
	grown := recs[0].grown + recs[1].grown
	ph.allocBytes = ph.rt.allocBytes - min(grown, ph.rt.allocBytes)
	return ph, nil
}

// printEndToEnd prints the human-readable lines of an untraced run:
// each metric with its unit, and each percentile with the number of
// samples behind it.
func printEndToEnd(out io.Writer, ph phase, setupS []float64) {
	res := ph.result()
	names := []string{"interactive", "bulk"}
	if ph.direct {
		names = []string{"interactive (big worker)", "bulk (little worker)"}
	}
	fmt.Fprintf(out, "windows: %d of %v, one per set-up; values are medians over windows\n",
		len(ph.totals), time.Duration(ph.measuredNs/int64(max(1, len(ph.totals)))))
	for c, n := range names {
		fmt.Fprintf(out, "%s: %d requests, %d ops, %d failed, %d latency samples\n",
			n, ph.cls[c].reqs, ph.cls[c].ops, ph.cls[c].fails, ph.cls[c].samples)
	}
	fmt.Fprintf(out, "failed_ratio %.6f (%d of %d requests)\n", ratio(float64(ph.failed()), float64(ph.attempted())), ph.failed(), ph.attempted())
	for _, d := range endToEnd {
		v := res.Metrics[d.name].Value
		note := ""
		switch d.name {
		case "interactive_p50_us", "interactive_p99_us":
			note = fmt.Sprintf("  (n=%d)", ph.cls[0].samples)
		case "bulk_p50_us", "bulk_p99_us":
			note = fmt.Sprintf("  (n=%d)", ph.cls[1].samples)
		case "setup_s":
			v = median(setupS)
			note = fmt.Sprintf("  (median of %d set-ups)", len(setupS))
		}
		fmt.Fprintf(out, "%-28s %14.4f %s%s\n", d.name, v, d.unit, note)
	}
}

// runTraced alternates untraced and traced set-ups, half of setups
// each, untraced first. Every set-up is measured as in an untraced run,
// one window of --seconds/setups, so the traced and untraced
// throughputs are medians of like windows and the tracing overhead is
// their ratio. The traced set-ups share one tracer, and the per-layer
// metrics cover all of their windows.
func runTraced(o options, s *spec, cfg map[string]any, out io.Writer) (result, error) {
	window := time.Duration(o.seconds) * time.Second / setups
	var tr *tracer
	var plain, traced []phase
	for i := range setups {
		if i%2 == 0 {
			ph, _, err := setUpAndMeasure(o, s, nil, window)
			plain = append(plain, ph)
			if err != nil {
				return ph.result(), err
			}
			continue
		}
		if tr == nil {
			// Sample one request in stride so that every traced window
			// fits the buffer, judged by the first untraced window.
			tr = newTracer(time.Now(), spanCapacity)
			usable := uint64(spanCapacity-spanReserve) / 2
			if want := plain[0].attempted() * setups / 2 * spansPerRequest; want > usable {
				tr.stride = uint32((want + usable - 1) / usable)
			}
		}
		ph, _, err := setUpAndMeasure(o, s, tr, window)
		traced = append(traced, ph)
		if err != nil {
			return ph.result(), err
		}
	}
	ref, ph := pool(plain), pool(traced)

	in := layerInputs{
		spans:          tr.recorded(),
		tr:             tr,
		ops:            ph.ops(),
		reqs:           ph.attempted(),
		windowNs:       ph.measuredNs,
		untraced:       ref.throughput(),
		untracedSpread: rangeShare(ref.totals),
		traced:         ph.throughput(),
		direct:         ph.direct,
		server:         ph.server,
		shards:         ph.shards,
		recoveryS:      ph.recoveryS,
		wal:            ph.wal,
		rt:             ph.rt,
	}
	m := layerMetrics(in)
	res := ph.result()
	res.Attempted += ref.attempted()
	res.Failed += ref.failed()
	res.Metrics = map[string]metricValue{}
	fmt.Fprintf(out, "traced windows: %d, %d sampled requests (1 in %d), %d spans, %d dropped\n",
		len(traced), int(m["trace.sampled_requests"]), tr.stride, len(in.spans), tr.dropped.Load())
	if math.Abs(m["trace.overhead_share"]) <= m["trace.untraced_spread"] {
		fmt.Fprintln(out, "tracing overhead is within the untraced windows' range: not resolved")
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		fmt.Fprintf(out, "%-36s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	if o.traceOut != "" {
		if err := writeSpans(filepath.Join(o.traceOut, s.name+".tsv"), cfg, in.spans); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// rangeShare is the distance between the largest and smallest of xs as
// a share of their median.
func rangeShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return ratio(slices.Max(xs)-slices.Min(xs), median(xs))
}

// writeSpans writes the traced window's spans, one per line, after a
// header line holding the run's configuration.
func writeSpans(path string, cfg map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cb, err := json.Marshal(cfg)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(bw, "# %s\n# request\tkind\tclass\tstart_ns\tend_ns\n", cb)
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\n", s.parent, kindNames[s.kind], s.class, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
