package shardedkv

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/prng"
)

// These tests pin the cross-shard merge behind Range and MultiRange
// (emitMerged) against a sorted reference: every engine; 1, 2, 16 and
// 17 shards, and past 32 after splits (beyond the merge heap's on-stack
// capacity); key sets that leave most shards empty; empty and key-less
// ranges; and early stops at every position.

// mergeRef is the reference: the live keys, ascending.
type mergeRef []uint64

func (r mergeRef) in(lo, hi uint64) []uint64 {
	var out []uint64
	for _, k := range r {
		if k >= lo && k <= hi {
			out = append(out, k)
		}
	}
	return out
}

// fillMergeStore writes pseudo-random keys below 4096 until live holds
// n of them, then deletes the live keys congruent to 3 mod 7, keeping
// live in step with the store.
func fillMergeStore(w *core.Worker, st *Store, live map[uint64]bool, n int, seed uint64) {
	rng := prng.NewXoshiro256(seed)
	for len(live) < n {
		k := prng.Uint64n(rng, 4096)
		st.Put(w, k, stressValue(k))
		live[k] = true
	}
	for k := range live {
		if k%7 == 3 {
			st.Delete(w, k)
			delete(live, k)
		}
	}
}

func checkPairs(t *testing.T, what string, got []Pair, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Fatalf("%s: pair %d has key %d, want %d", what, i, kv.Key, want[i])
		}
		checkStressValue(t, kv.Key, kv.Value)
	}
}

func TestRangeMergeVsReference(t *testing.T) {
	for _, spec := range AllEngines() {
		for _, shards := range []int{1, 2, 16, 17} {
			for _, split := range []bool{false, true} {
				for _, n := range []int{0, 5, 300} {
					name := fmt.Sprintf("%s/shards=%d/split=%v/keys=%d", spec.Name, shards, split, n)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Shards: shards, NewEngine: spec.New}
						if split {
							cfg.Reshard = &ReshardConfig{Manual: true, MaxShards: shards + 20}
						}
						st := New(cfg)
						defer st.StopReshard()
						w := core.NewWorker(core.WorkerConfig{Class: core.Big})
						live := map[uint64]bool{}
						fillMergeStore(w, st, live, n/2, uint64(shards*1000+n))
						if split {
							// Split between two fills, so the merge sees both
							// keys the split moved and keys written after it.
							for k := uint64(0); k < 20; k++ {
								st.ForceSplit(w, k*97)
							}
							if st.NumShards() <= shards {
								t.Fatalf("no split happened: %d shards", st.NumShards())
							}
						}
						fillMergeStore(w, st, live, n, uint64(shards*1000+n+1))
						ref := make(mergeRef, 0, len(live))
						for k := range live {
							ref = append(ref, k)
						}
						sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
						reqs := []RangeReq{
							{Lo: 0, Hi: ^uint64(0)},
							{Lo: 10, Hi: 5}, // empty: lo > hi
							{Lo: 5000, Hi: 6000},
							{Lo: 1000, Hi: 1255},
							{Lo: 4095, Hi: 4095},
						}
						if len(ref) > 0 {
							reqs = append(reqs, RangeReq{Lo: ref[0], Hi: ref[0]}, RangeReq{Lo: ref[len(ref)/2], Hi: ref[len(ref)-1]})
						}
						multi := st.MultiRange(w, reqs)
						for i, r := range reqs {
							want := ref.in(r.Lo, r.Hi)
							var got []Pair
							st.Range(w, r.Lo, r.Hi, func(k uint64, v []byte) bool {
								got = append(got, Pair{Key: k, Value: v})
								return true
							})
							checkPairs(t, fmt.Sprintf("Range[%d,%d]", r.Lo, r.Hi), got, want)
							checkPairs(t, fmt.Sprintf("MultiRange[%d] [%d,%d]", i, r.Lo, r.Hi), multi[i], want)
						}
						// fn returning false at position stop must end the
						// emission right there, for every stop.
						for stop := range ref {
							calls := 0
							st.Range(w, 0, ^uint64(0), func(k uint64, v []byte) bool {
								if k != ref[calls] {
									t.Fatalf("stop %d: call %d got key %d, want %d", stop, calls, k, ref[calls])
								}
								calls++
								return calls <= stop
							})
							if calls != stop+1 {
								t.Fatalf("fn returned false at call %d but was called %d times", stop+1, calls)
							}
						}
					})
				}
			}
		}
	}
}
