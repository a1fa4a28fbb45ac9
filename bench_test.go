// Package repro's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, each regenerating its
// experiment on the deterministic AMP simulator and reporting the
// headline metrics via b.ReportMetric, plus real-lock micro-benchmarks
// and ablation benches of LibASL's design choices.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// A single figure:
//
//	go test -bench=BenchmarkFig8a
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/locks"
	"repro/internal/stats"
)

// benchDur keeps each simulated experiment short enough for the bench
// harness while leaving thousands of epochs per configuration.
const (
	benchDur    = int64(60_000_000) // 60 ms virtual
	benchWarmup = int64(15_000_000)
)

// reportRun runs one simulator configuration per b.N iteration and
// reports simulated throughput and P99s. The figure benchmarks measure
// the experiment, not the host, so wall-clock ns/op is just the cost
// of regenerating the figure.
func reportRun(b *testing.B, cfg figures.MicroConfig) {
	b.Helper()
	cfg.Duration = benchDur
	cfg.Warmup = benchWarmup
	var last *figures.MicroResult
	for i := 0; i < b.N; i++ {
		last = figures.RunMicro(cfg)
	}
	b.ReportMetric(last.Throughput, "sim-ops/s")
	b.ReportMetric(float64(last.Epochs.Overall().P99()), "sim-p99-ns")
	b.ReportMetric(float64(last.Epochs.ByClass(stats.Little).P99()), "sim-littlep99-ns")
}

// --- Figure 1 and 4: the collapse study -----------------------------

func BenchmarkFig1MCS8Threads(b *testing.B) {
	reportRun(b, figures.CollapseConfig(8, 4, figures.KindMCS, false))
}

func BenchmarkFig1TASLittleAffinity(b *testing.B) {
	reportRun(b, figures.CollapseConfig(8, 4, figures.KindTAS, false))
}

func BenchmarkFig4TASBigAffinity(b *testing.B) {
	reportRun(b, figures.CollapseConfig(8, 64, figures.KindTAS, true))
}

// --- Figure 5: static proportions -----------------------------------

func BenchmarkFig5ProportionPB10(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindSHFLPB, -1)
	cfg.PBn = 10
	reportRun(b, cfg)
}

// --- Figure 8: micro-benchmarks -------------------------------------

func BenchmarkFig8aMCS(b *testing.B)     { reportRun(b, figures.Bench1Config(figures.KindMCS, -1)) }
func BenchmarkFig8aTAS(b *testing.B)     { reportRun(b, figures.Bench1Config(figures.KindTAS, -1)) }
func BenchmarkFig8aPthread(b *testing.B) { reportRun(b, figures.Bench1Config(figures.KindPthread, -1)) }
func BenchmarkFig8aASL50us(b *testing.B) {
	reportRun(b, figures.Bench1Config(figures.KindASL, 50_000))
}
func BenchmarkFig8aASLMax(b *testing.B) { reportRun(b, figures.Bench1Config(figures.KindASL, -1)) }

func BenchmarkFig8bSLOSweepPoint(b *testing.B) {
	reportRun(b, figures.Bench1Config(figures.KindASL, 80_000))
}

func BenchmarkFig8cMixedEpochs(b *testing.B) {
	reportRun(b, figures.Bench3Config(figures.KindASL, 100_000, 0.5, 31))
}

func BenchmarkFig8dAdaptivityTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tr := figures.Fig8d()
		b.ReportMetric(float64(tr.Len()), "trace-samples")
	}
}

func BenchmarkFig8eScalability8(b *testing.B) {
	reportRun(b, figures.CollapseConfig(8, 64, figures.KindASL, true))
}

func BenchmarkFig8gContentionHigh(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, -1)
	cfg.NCS = 1 // back-to-back acquisitions
	reportRun(b, cfg)
}

func BenchmarkFig8hOversubPthread(b *testing.B) {
	reportRun(b, figures.OversubConfig(figures.KindPthread, -1))
}

func BenchmarkFig8hOversubMCSSTP(b *testing.B) {
	reportRun(b, figures.OversubConfig(figures.KindMCSSTP, -1))
}

func BenchmarkFig8hOversubASL3ms(b *testing.B) {
	reportRun(b, figures.OversubConfig(figures.KindASL, 3_000_000))
}

func BenchmarkFig8iOversubSweepPoint(b *testing.B) {
	reportRun(b, figures.OversubConfig(figures.KindASL, 5_000_000))
}

// --- Figures 9 and 10: the databases --------------------------------

func benchDB(b *testing.B, tpl figures.DBTemplate, kind figures.LockKind, slo int64) {
	b.Helper()
	cfg := figures.DBConfig(tpl, kind, slo, 91)
	reportRun(b, cfg)
}

func BenchmarkFig9KyotoMCS(b *testing.B) { benchDB(b, figures.KyotoTemplate(), figures.KindMCS, -1) }
func BenchmarkFig9KyotoASL(b *testing.B) {
	benchDB(b, figures.KyotoTemplate(), figures.KindASL, 70_000)
}
func BenchmarkFig9UpscaleTAS(b *testing.B) {
	benchDB(b, figures.UpscaleTemplate(), figures.KindTAS, -1)
}
func BenchmarkFig9UpscaleASL(b *testing.B) {
	benchDB(b, figures.UpscaleTemplate(), figures.KindASL, 140_000)
}
func BenchmarkFig9LMDBASL(b *testing.B) {
	benchDB(b, figures.LMDBTemplate(), figures.KindASL, 600_000)
}
func BenchmarkFig10LevelDBASL(b *testing.B) {
	benchDB(b, figures.LevelDBTemplate(), figures.KindASL, 100_000)
}
func BenchmarkFig10SQLiteASL(b *testing.B) {
	benchDB(b, figures.SQLiteTemplate(), figures.KindASL, 4_000_000)
}

// --- Ablations -------------------------------------------------------

func BenchmarkAblationBackoffExponential(b *testing.B) {
	reportRun(b, figures.Bench1Config(figures.KindASL, 80_000))
}

func BenchmarkAblationBackoffFixedPoll(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, 80_000)
	cfg.ASLFixedPoll = true
	reportRun(b, cfg)
}

func BenchmarkAblationControllerAIMD(b *testing.B) {
	reportRun(b, figures.Bench1Config(figures.KindASL, 80_000))
}

func BenchmarkAblationControllerAdditive(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, 80_000)
	cfg.Controller = func() core.Controller { return core.NewAdditive(core.AIMDConfig{}) }
	reportRun(b, cfg)
}

func BenchmarkAblationControllerMultiplicative(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, 80_000)
	cfg.Controller = func() core.Controller { return core.NewMultiplicative(core.AIMDConfig{}) }
	reportRun(b, cfg)
}

func BenchmarkAblationBaseLockMCS(b *testing.B) {
	reportRun(b, figures.Bench1Config(figures.KindASL, 80_000))
}

func BenchmarkAblationBaseLockTicket(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, 80_000)
	cfg.ASLBaseTicket = true
	reportRun(b, cfg)
}

func BenchmarkAblationPercentileP90(b *testing.B) {
	cfg := figures.Bench1Config(figures.KindASL, 80_000)
	cfg.Controller = func() core.Controller { return core.NewAIMD(core.AIMDConfig{Percentile: 90}) }
	reportRun(b, cfg)
}

// --- Real lock micro-benchmarks (host hardware) ----------------------

func benchRealLock(b *testing.B, l interface {
	Lock()
	Unlock()
}) {
	b.Helper()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Lock()
			l.Unlock()
		}
	})
}

func BenchmarkRealLockTAS(b *testing.B)     { benchRealLock(b, new(locks.TAS)) }
func BenchmarkRealLockTTAS(b *testing.B)    { benchRealLock(b, new(locks.TTAS)) }
func BenchmarkRealLockTicket(b *testing.B)  { benchRealLock(b, new(locks.Ticket)) }
func BenchmarkRealLockMCS(b *testing.B)     { benchRealLock(b, new(locks.MCS)) }
func BenchmarkRealLockBarging(b *testing.B) { benchRealLock(b, new(locks.BargingMutex)) }

func BenchmarkRealLockASLUncontended(b *testing.B) {
	m := locks.NewASLMutexDefault()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lock(w)
		m.Unlock(w)
	}
}

func BenchmarkEpochOverhead(b *testing.B) {
	// The paper reports ~93 cycles per epoch pair; this measures our
	// EpochStart/EpochEnd cost.
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.EpochStart(0)
		w.EpochEnd(0, int64(time.Millisecond))
	}
}
