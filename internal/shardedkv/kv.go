package shardedkv

import "repro/internal/core"

// KV is the store surface the Store and its fixed-class views (from
// As) both implement. Consumers that do not care which SLO class
// binding they are handed — the network server's request loop, the
// benchmark driver, the model checker's harness — program against this
// and let the caller pick the implementation.
//
// Contracts shared by all implementations:
//
//   - Every method takes the calling goroutine's own *core.Worker;
//     workers are not shareable.
//   - Put/MultiPut retain value slices by reference until applied (and,
//     under durability, until logged) — callers must not reuse buffers.
//   - Range/MultiRange results are ascending-key and per-shard
//     consistent; fn never runs under a shard lock.
//   - Writes return an error exactly when their durability promise
//     failed: nil without durability configured, *DegradedError once
//     the owning shard's log has failed (degraded.go). A non-nil
//     error is never a durability ack, whatever the other results
//     say; reads keep serving on a degraded shard.
//   - Flush is the durability barrier: every write that returned
//     before it is fsynced when durability is configured. Failures of
//     async-acked (bulk-policy) writes surface here.
//   - Close makes the handle unusable; views share one Store, so
//     closing any view closes that Store.
//   - Stats snapshots the underlying Store's per-shard counters; views
//     report the same store-level numbers.
type KV interface {
	Get(w *core.Worker, k uint64) ([]byte, bool)
	Put(w *core.Worker, k uint64, v []byte) (bool, error)
	Delete(w *core.Worker, k uint64) (bool, error)
	MultiGet(w *core.Worker, keys []uint64) ([][]byte, []bool)
	MultiPut(w *core.Worker, kvs []Pair) (int, error)
	Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool)
	MultiRange(w *core.Worker, reqs []RangeReq) [][]Pair
	Flush(w *core.Worker) error
	Close(w *core.Worker)
	Stats() []ShardStats
}

// The two implementations below are the complete set; the asserts
// keep interface drift a compile error rather than a runtime surprise
// in whichever consumer noticed last.
var (
	_ KV = (*Store)(nil)
	_ KV = ClassedStore{}
)
