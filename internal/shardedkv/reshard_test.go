package shardedkv

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// manualReshard returns a reshard config with the detector off: splits
// fire only when the test forces them, so split points are
// deterministic. The budget keeps stress runs from fissioning into
// hundreds of micro-shards (every post-split op pays a per-shard visit
// on scans, so an unbounded budget turns the scan mix quadratic).
func manualReshard() *ReshardConfig {
	return &ReshardConfig{Manual: true, MaxShards: 48}
}

// TestForceSplitPreservesData splits shards repeatedly on every engine
// — including re-splitting children, which doubles the group
// subdirectory — and checks that no key is lost, Len reconciles,
// ordered Range still covers everything, and the map epoch advances
// once per split.
func TestForceSplitPreservesData(t *testing.T) {
	const keys = 2048
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 4, NewEngine: spec.New, Reshard: manualReshard()})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for k := uint64(0); k < keys; k += 2 {
				st.Put(w, k, stressValue(k))
			}
			if got := st.NumShards(); got != 4 {
				t.Fatalf("seed NumShards = %d, want 4", got)
			}
			// Split the shard owning key 0, then the shards owning a few
			// more keys; re-splitting the same keys' homes forces
			// children (and directory doublings) deeper.
			splitKeys := []uint64{0, 0, 0, 2, 4, 8, 16}
			for i, sk := range splitKeys {
				epoch := st.MapEpoch()
				if !st.ForceSplit(w, sk) {
					t.Fatalf("ForceSplit %d (key %d) refused", i, sk)
				}
				if got := st.MapEpoch(); got != epoch+1 {
					t.Fatalf("split %d: epoch %d -> %d, want +1", i, epoch, got)
				}
			}
			rs := st.ReshardStats()
			if rs.Splits != uint64(len(splitKeys)) || rs.Events != uint64(len(splitKeys)) {
				t.Fatalf("ReshardStats = %+v, want %d splits/events", rs, len(splitKeys))
			}
			if rs.Shards != 4+len(splitKeys) {
				t.Fatalf("NumShards = %d after %d splits of 4, want %d", rs.Shards, len(splitKeys), 4+len(splitKeys))
			}
			// Every key still answers, through point reads and the scan.
			for k := uint64(0); k < keys; k++ {
				v, ok := st.Get(w, k)
				if want := k%2 == 0; ok != want {
					t.Fatalf("Get(%d) ok=%v, want %v", k, ok, want)
				} else if ok {
					checkStressValue(t, k, v)
				}
			}
			if got := st.Len(w); got != keys/2 {
				t.Fatalf("Len = %d, want %d", got, keys/2)
			}
			seen, prev, first := 0, uint64(0), true
			st.Range(w, 0, keys-1, func(k uint64, v []byte) bool {
				if !first && k <= prev {
					t.Fatalf("Range emitted %d after %d", k, prev)
				}
				prev, first = k, false
				checkStressValue(t, k, v)
				seen++
				return true
			})
			if seen != keys/2 {
				t.Fatalf("Range visited %d keys, want %d", seen, keys/2)
			}
		})
	}
}

// TestSplitRefusalAtMaxShards pins the shard budget: splits stop at
// MaxShards and report refusal.
func TestSplitRefusalAtMaxShards(t *testing.T) {
	st := New(Config{Shards: 2, Reshard: &ReshardConfig{Manual: true, MaxShards: 4}})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	st.Put(w, 1, stressValue(1))
	splits := 0
	for i := 0; i < 10; i++ {
		if st.ForceSplit(w, uint64(i)) {
			splits++
		}
	}
	if got := st.NumShards(); got > 4 {
		t.Fatalf("NumShards = %d, budget was 4", got)
	}
	if splits != 2 {
		t.Fatalf("%d splits succeeded under a 2->4 budget, want 2", splits)
	}
}

// TestSplitDepthCap pins the lineage bound: one key's home shard can
// split at most maxSplitDepth times, however large the shard budget —
// past that, the heat is too concentrated for fission to spread (and
// the subdirectory doubling would outgrow the hash bits).
func TestSplitDepthCap(t *testing.T) {
	st := New(Config{Shards: 1, Reshard: &ReshardConfig{Manual: true, MaxShards: 1 << 20}})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	st.Put(w, 42, stressValue(42))
	splits := 0
	for st.ForceSplit(w, 42) {
		splits++
		if splits > 2*maxSplitDepth {
			t.Fatal("lineage splits did not stop")
		}
	}
	if splits != maxSplitDepth {
		t.Fatalf("key 42's lineage split %d times, want %d", splits, maxSplitDepth)
	}
	if v, ok := st.Get(w, 42); !ok {
		t.Fatal("key lost across depth-capped splits")
	} else {
		checkStressValue(t, 42, v)
	}
}

// TestAggregateStatsSurviveSplits checks that a split folds the
// retired shard's counters into the aggregate instead of losing them.
func TestAggregateStatsSurviveSplits(t *testing.T) {
	st := New(Config{Shards: 2, Reshard: manualReshard()})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 300; k++ {
		st.Put(w, k, stressValue(k))
	}
	for k := uint64(0); k < 100; k++ {
		st.Get(w, k)
	}
	before := st.AggregateStats()
	if before.Puts != 300 || before.Gets != 100 {
		t.Fatalf("pre-split aggregate = %+v", before)
	}
	for _, sk := range []uint64{0, 1, 2, 3} {
		st.ForceSplit(w, sk)
	}
	after := st.AggregateStats()
	if after.Puts != 300 || after.Gets != 100 {
		t.Fatalf("post-split aggregate lost history: %+v", after)
	}
	if after.LockAttempts == 0 {
		t.Fatal("reshard-enabled store must track lock attempts")
	}
}

// TestTrackContentionStats checks the contention plumbing without
// resharding: TrackContention populates the ShardStats lock counters.
func TestTrackContentionStats(t *testing.T) {
	st := New(Config{Shards: 2, TrackContention: true})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 64; k++ {
		st.Put(w, k, stressValue(k))
	}
	agg := st.AggregateStats()
	if agg.LockAttempts < 64 {
		t.Fatalf("LockAttempts = %d, want >= 64", agg.LockAttempts)
	}
	if agg.LockContended > agg.LockAttempts {
		t.Fatalf("LockContended %d > LockAttempts %d", agg.LockContended, agg.LockAttempts)
	}
	// Without tracking, the counters stay zero.
	st2 := New(Config{Shards: 2})
	st2.Put(w, 1, stressValue(1))
	if s := st2.AggregateStats(); s.LockAttempts != 0 {
		t.Fatalf("untracked store reports %d lock attempts", s.LockAttempts)
	}
}

// TestReshardDetectorSplitsHotShard runs the background detector
// against a deliberately skewed load (every op on one shard) with an
// aggressive window and checks that it splits within the deadline —
// the end-to-end smoke of the measure-then-split loop.
func TestReshardDetectorSplitsHotShard(t *testing.T) {
	st := New(Config{
		Shards: 4,
		CSPad:  func(w *core.Worker) { workload.Spin(500) },
		Reshard: &ReshardConfig{
			SkewFactor:    1.5,
			Window:        10 * time.Millisecond,
			Sustain:       2,
			MinOps:        64,
			MinContention: 0.001,
			MaxShards:     16,
		},
	})
	defer st.StopReshard()
	// One hot key pins all traffic to one shard; several workers make
	// the lock measurably contended.
	hot := uint64(7)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for !stop.Load() {
				st.Put(w, hot, stressValue(hot))
				st.Get(w, hot)
			}
		}(wi)
	}
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for st.ReshardStats().Splits == 0 {
		select {
		case <-deadline:
			stop.Store(true)
			wg.Wait()
			t.Fatalf("detector never split: %+v, agg %+v", st.ReshardStats(), st.AggregateStats())
		case <-tick.C:
		}
	}
	stop.Store(true)
	wg.Wait()
	rs := st.ReshardStats()
	if rs.Events == 0 || rs.Shards <= 4 {
		t.Fatalf("ReshardStats after detector split = %+v", rs)
	}
	// The hot key still answers.
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if v, ok := st.Get(w, hot); !ok {
		t.Fatal("hot key lost across detector split")
	} else {
		checkStressValue(t, hot, v)
	}
}
