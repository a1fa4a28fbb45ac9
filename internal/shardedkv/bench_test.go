package shardedkv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prng"
)

// BenchmarkStoreRange times one 256-key Range on a 16-shard store of
// 1<<16 dense keys with 64-byte values: the per-shard collection under
// each lock plus the cross-shard merge into the callback. One op is
// one Range call (256 pairs emitted).
func BenchmarkStoreRange(b *testing.B) {
	const keys, span = 1 << 16, 256
	for _, spec := range AllEngines() {
		if spec.Name != "lsm" && spec.Name != "hashkv" {
			continue
		}
		b.Run(spec.Name, func(b *testing.B) {
			st := New(Config{Shards: 16, NewEngine: spec.New})
			w := core.NewWorker(core.WorkerConfig{Class: core.Little})
			for k := uint64(0); k < keys; k++ {
				st.Put(w, k, make([]byte, 64))
			}
			rng := prng.NewXoshiro256(1)
			emitted := 0
			count := func(uint64, []byte) bool { emitted++; return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := prng.Uint64n(rng, keys-span+1)
				st.Range(w, lo, lo+span-1, count)
			}
			if emitted != b.N*span {
				b.Fatalf("emitted %d pairs, want %d", emitted, b.N*span)
			}
		})
	}
}
