package shardedkv_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shardedkv"
)

// ExampleStore shows the synchronous store: one worker, point ops,
// a batched read, and an ordered range scan.
func ExampleStore() {
	st := shardedkv.New(shardedkv.Config{Shards: 4})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	st.Put(w, 1, []byte("one"))
	st.Put(w, 2, []byte("two"))
	st.Put(w, 3, []byte("three"))
	st.Delete(w, 2)

	if v, ok := st.Get(w, 1); ok {
		fmt.Printf("get 1 = %s\n", v)
	}
	_, ok := st.MultiGet(w, []uint64{1, 2, 3})
	fmt.Printf("multiget found = %v\n", ok)

	st.Range(w, 0, 10, func(k uint64, v []byte) bool {
		fmt.Printf("range %d = %s\n", k, v)
		return true
	})
	// Output:
	// get 1 = one
	// multiget found = [true false true]
	// range 1 = one
	// range 3 = three
}

// ExampleStore_classOverride shows op-level class overrides: the same
// worker issues one op little-class (standing by within the reorder
// window at a contended ASL shard lock) and one big-class, via As
// views — the serving boundary's per-request classing.
func ExampleStore_classOverride() {
	st := shardedkv.New(shardedkv.Config{Shards: 2})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	st.As(core.Little).Put(w, 7, []byte("bulk write"))
	v, _ := st.As(core.Big).Get(w, 7)
	fmt.Printf("interactive read = %s\n", v)
	fmt.Printf("base class unchanged = %v\n", w.Class())
	// Output:
	// interactive read = bulk write
	// base class unchanged = big
}
