package shardedkv_test

// Model-equivalence checks with biased shard locks enabled: the
// adopt/revoke lifecycle must be invisible to every KV return value,
// whatever splits happen underneath. The tests
// live in the external test package to reuse the shared
// internal/kvmodel harness (see durable_model_test.go).

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmodel"
	"repro/internal/locks"
	"repro/internal/shardedkv"
)

// biasStressCfg is a deliberately hair-trigger tuning: tiny adoption
// windows and a one-percent share threshold make the bias adopt on
// essentially every window and revoke on the next foreign acquire, so
// a multi-worker stress crosses the adopt/revoke transition constantly
// instead of once.
func biasStressCfg() locks.BiasedConfig {
	return locks.BiasedConfig{AdoptWindow: 4, AdoptPercent: 1, RevokeTries: 2}
}

// TestBiasSplitLinearizableVsModel is the sync-store model equivalence
// with biased locks flapping under mixed-class traffic while forced
// splits retire biased parents mid-stress. All four engines; run with
// -race.
func TestBiasSplitLinearizableVsModel(t *testing.T) {
	const workers = 6
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := shardedkv.New(shardedkv.Config{
				Shards:     4,
				NewEngine:  spec.New,
				Reshard:    modelReshard(),
				Bias:       true,
				BiasConfig: biasStressCfg(),
			})
			var wg sync.WaitGroup
			stop := make(chan struct{})
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
					time.Sleep(200 * time.Microsecond)
				}
			}()
			kvmodel.Drive(t, st, workers, opsPer)
			close(stop)
			wg.Wait()
			if st.ReshardStats().Splits == 0 {
				t.Error("stress ran without a single split; the test lost its point")
			}
			bs := st.AggregateBiasStats()
			if bs.Adoptions == 0 || bs.Revocations == 0 {
				t.Errorf("bias never cycled: %+v; the hair-trigger config should flap", bs)
			}
			if live := bs.Adoptions - bs.Revocations; live > uint64(st.NumShards()) {
				t.Errorf("cookie ledger off: %d adoptions vs %d revocations across %d shards",
					bs.Adoptions, bs.Revocations, st.NumShards())
			}
		})
	}
}

// TestBiasAsyncAdoptionAndSplitRevocation drives a single-owner hot shard
// — the scenario bias exists for — through a contention-wrapped store
// and pins the full lifecycle: the windowed take counter adopts the
// owner, the owner's takes go fast-path, and a forced split of the
// biased shard revokes the bias (via split's explicit Revoke: the
// splitter here IS the owner, the case the rendezvous acquire alone
// would miss) before the children serve. Values stay model-exact
// throughout. (The name predates the removal of the combining front
// end this test once drove; it now drives Store directly.)
func TestBiasAsyncAdoptionAndSplitRevocation(t *testing.T) {
	ops := 3_000
	if testing.Short() {
		ops = 800
	}
	st := shardedkv.New(shardedkv.Config{
		Shards:  1,
		Reshard: modelReshard(),
		Bias:    true, // default BiasedConfig: the production tuning
	})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	model := make(map[uint64][]byte)

	put := func(k uint64, ver uint64) {
		v := kvmodel.VerValue(k, ver)
		if _, err := st.Put(w, k, v); err != nil {
			t.Fatalf("put(%d): %v", k, err)
		}
		model[k] = v
	}
	check := func(k uint64) {
		t.Helper()
		v, ok := st.Get(w, k)
		if mv := model[k]; ok != (mv != nil) || !bytes.Equal(v, mv) {
			t.Fatalf("Get(%d) = %x,%v; model %x", k, v, ok, mv)
		}
	}

	for i := 0; i < ops; i++ {
		k := uint64(i % 64)
		put(k, uint64(i))
		check(k)
	}
	bs := st.AggregateBiasStats()
	if bs.Adoptions == 0 {
		t.Fatalf("single-owner hot shard never adopted a bias: %+v", bs)
	}
	if bs.FastAcquires == 0 {
		t.Fatalf("owner never took the fast path after adoption: %+v", bs)
	}

	if !st.ForceSplit(w, 0) {
		t.Fatal("forced split refused")
	}
	after := st.AggregateBiasStats()
	if after.Revocations <= bs.Revocations {
		t.Fatalf("split did not revoke the parent's bias: %+v -> %+v", bs, after)
	}

	// The children serve the same data, and the owner re-earns its bias
	// on the hot child through fresh adoption windows.
	for k := uint64(0); k < 64; k++ {
		check(k)
	}
	for i := 0; i < ops; i++ {
		k := uint64(i % 8) // hotter: fewer keys, same worker
		put(k, uint64(ops+i))
		check(k)
	}
	final := st.AggregateBiasStats()
	if final.Adoptions <= after.Adoptions {
		t.Errorf("no re-adoption on the split children: %+v -> %+v", after, final)
	}
}

// TestBiasSyncWindowedAdoption pins the windowed-counter adoption path
// without the Contended wrapper: a store built
// with Bias alone adopts a solo writer after one default window, the
// writer's later ops ride the fast path, and one op from a foreign
// worker revokes the bias through the grace-period handshake.
func TestBiasSyncWindowedAdoption(t *testing.T) {
	st := shardedkv.New(shardedkv.Config{Shards: 1, Bias: true})
	owner := core.NewWorker(core.WorkerConfig{Class: core.Big})
	foreign := core.NewWorker(core.WorkerConfig{Class: core.Little})

	// The default adoption window is 64 slow releases; 100 solo ops
	// cross it with margin.
	for i := 0; i < 100; i++ {
		if _, err := st.Put(owner, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	bs := st.AggregateBiasStats()
	if bs.Adoptions != 1 {
		t.Fatalf("Adoptions = %d, want exactly 1 from the windowed counter", bs.Adoptions)
	}
	if bs.FastAcquires == 0 {
		t.Fatalf("no fast-path acquires after adoption: %+v", bs)
	}

	if v, ok := st.Get(foreign, 7); !ok || !bytes.Equal(v, []byte{7}) {
		t.Fatalf("foreign Get(7) = %x,%v through the revocation", v, ok)
	}
	if bs = st.AggregateBiasStats(); bs.Revocations != 1 {
		t.Fatalf("Revocations = %d, want 1 after the foreign acquire", bs.Revocations)
	}

	// Ex-owner still serves correctly, now via the wrapped lock.
	if v, ok := st.Get(owner, 8); !ok || !bytes.Equal(v, []byte{8}) {
		t.Fatalf("ex-owner Get(8) = %x,%v", v, ok)
	}
}
