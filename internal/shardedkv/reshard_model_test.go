package shardedkv_test

// The split-under-load model-equivalence checks live in the external
// test package so they can use the shared internal/kvmodel harness
// (see durable_model_test.go for the import-cycle reasoning).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmodel"
	"repro/internal/shardedkv"
)

// TestSplitUnderLoadLinearizable is the split-under-load equivalence
// check of the sync store: every worker owns a disjoint key set and
// mirrors each op on a private model, so return values are exactly
// predictable, while a splitter thread keeps forcing splits on hot
// keys mid-stress. All four engines; run with -race.
func TestSplitUnderLoadLinearizable(t *testing.T) {
	const workers = 6
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := shardedkv.New(shardedkv.Config{Shards: 4, NewEngine: spec.New, Reshard: modelReshard()})
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// The splitter forces a split every few hundred
			// microseconds, cycling the target key so different shards
			// (and later their children) split while ops are in flight.
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
			// The shared KV-model harness does the striped
			// drive-and-check; this test contributes the concurrent
			// splitter.
			kvmodel.Drive(t, st, workers, opsPer)
			close(stop)
			wg.Wait()
			if st.ReshardStats().Splits == 0 {
				t.Error("stress ran without a single split; the test lost its point")
			}
		})
	}
}
