package shardedkv_test

// The crash-vs-model headliners live in the external test package:
// they drive the store purely through its public KV surface via the
// shared internal/kvmodel harness (which imports shardedkv, so the
// internal test package cannot use it without an import cycle).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmodel"
	"repro/internal/shardedkv"
)

// modelReshard mirrors the internal tests' manualReshard: detector
// off, split points deterministic, budget bounded.
func modelReshard() *shardedkv.ReshardConfig {
	return &shardedkv.ReshardConfig{Manual: true, MaxShards: 48}
}

// modelDurCfg builds a store config over dir with every write
// sync-waited, so the model is exact after a crash with no Flush:
// each op was durable before it returned.
func modelDurCfg(dir string, eng func(int) shardedkv.Engine) shardedkv.Config {
	return shardedkv.Config{
		Shards:    4,
		NewEngine: eng,
		Reshard:   modelReshard(),
		Durability: &shardedkv.DurabilityConfig{
			Dir:         dir,
			Interactive: shardedkv.SyncWait,
			Bulk:        shardedkv.SyncWait,
		},
	}
}

// TestDurableRecoveryVsModel is the headline crash check on all four
// engines: the shared KV-model harness hammers a durable store while a
// splitter keeps forcing splits (so children's fresh logs and retired
// parents' logs both carry live history), then the store either closes
// cleanly or is killed; the reopened store must match the merged model
// key for key. Run with -race.
func TestDurableRecoveryVsModel(t *testing.T) {
	const workers = 4
	opsPer := 1_500
	if testing.Short() {
		opsPer = 300
	}
	for _, spec := range shardedkv.AllEngines() {
		for _, kill := range []string{"close", "crash"} {
			t.Run(spec.Name+"/"+kill, func(t *testing.T) {
				dir := t.TempDir()
				st := shardedkv.New(modelDurCfg(dir, spec.New))
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := core.NewWorker(core.WorkerConfig{Class: core.Big})
					for i := uint64(0); ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						st.ForceSplit(w, i%64)
						time.Sleep(300 * time.Microsecond)
					}
				}()
				final := kvmodel.Drive(t, st, workers, opsPer)
				close(stop)
				wg.Wait()
				if st.ReshardStats().Splits == 0 {
					t.Error("no split fired; the split-vs-WAL interaction went untested")
				}
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				if kill == "close" {
					st.Close(w)
				} else {
					// Every op sync-waited, so nothing in the model is
					// allowed to be lost to the kill.
					st.CrashDrop()
				}
				st2 := shardedkv.New(modelDurCfg(dir, spec.New))
				kvmodel.Verify(t, st2, workers, final)
				st2.Close(w)
			})
		}
	}
}

// TestDurableAsyncPipelineRecovery runs the same model equivalence under
// the default class policies — interactive writes wait for group
// commit, bulk writes ack after the buffered append — with splits
// firing mid-stress, then kills the store after a Flush (the
// durability barrier, which group-commits every log) and verifies the
// replayed store against the model: no async-acked bulk write may be
// lost once Flush returned. Run with -race. (The name predates the
// removal of the combining front end; "async" is the bulk class's
// ack-before-fsync policy.)
func TestDurableAsyncPipelineRecovery(t *testing.T) {
	const workers = 4
	opsPer := 1_000
	if testing.Short() {
		opsPer = 250
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := modelDurCfg(dir, spec.New)
			cfg.Durability.Interactive = shardedkv.SyncDefault
			cfg.Durability.Bulk = shardedkv.SyncDefault
			st := shardedkv.New(cfg)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					st.ForceSplit(w, i%64)
					time.Sleep(400 * time.Microsecond)
				}
			}()
			final := kvmodel.Drive(t, st, workers, opsPer)
			close(stop)
			wg.Wait()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			if err := st.Flush(w); err != nil {
				t.Fatalf("flush: %v", err)
			}
			ws := st.WalStats()
			if ws.Appended == 0 || ws.Syncs == 0 {
				t.Fatalf("store ran without logging: %+v", ws)
			}
			t.Logf("wal: %d records / %d fsyncs = %.2f ops/fsync",
				ws.Appended, ws.Syncs, ws.OpsPerFsync())
			st.CrashDrop()
			st2 := shardedkv.New(modelDurCfg(dir, spec.New))
			kvmodel.Verify(t, st2, workers, final)
			st2.Close(w)
		})
	}
}
