package lsm

import (
	"testing"

	"repro/internal/prng"
	"repro/internal/storage/skiplist"
)

func TestPutGet(t *testing.T) {
	s := New(1)
	s.FlushBytes = 1 << 10 // small, to force freezes
	for i := uint64(0); i < 2000; i++ {
		s.Put(i, []byte{byte(i)})
	}
	for i := uint64(0); i < 2000; i++ {
		v, ok := s.Get(i)
		if !ok || v[0] != byte(i) {
			t.Fatalf("Get(%d) = %v,%v", i, v, ok)
		}
	}
	if s.Runs() == 0 {
		t.Fatal("expected at least one frozen run")
	}
}

func TestOverwriteAcrossFreeze(t *testing.T) {
	s := New(2)
	s.FlushBytes = 256
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 50; i++ {
			s.Put(i, []byte{byte(round)})
		}
	}
	for i := uint64(0); i < 50; i++ {
		v, ok := s.Get(i)
		if !ok || v[0] != 9 {
			t.Fatalf("Get(%d) = %v,%v; newest write must win across runs", i, v, ok)
		}
	}
}

func TestSnapshotStability(t *testing.T) {
	s := New(3)
	s.FlushBytes = 512
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte("old"))
	}
	// Force the memtable into a run so the version captures it.
	for i := uint64(100); i < 400; i++ {
		s.Put(i, []byte("pad"))
	}
	v := s.Acquire()
	seqAt := v.Seq()
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte("new"))
	}
	for i := uint64(400); i < 1000; i++ {
		s.Put(i, []byte("more"))
	}
	// The pinned version still answers from its frozen view.
	got, ok := v.Get(5)
	if !ok || string(got) != "old" {
		t.Fatalf("snapshot read = %q,%v, want old", got, ok)
	}
	if v.Seq() != seqAt {
		t.Fatal("version seq changed under a pin")
	}
	s.Release(v)
}

func TestAcquireReleaseRefcount(t *testing.T) {
	s := New(4)
	v1 := s.Acquire()
	v2 := s.Acquire()
	if s.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", s.Refs())
	}
	s.Release(v1)
	s.Release(v2)
	if s.Refs() != 0 {
		t.Fatalf("refs = %d, want 0", s.Refs())
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(5)
	v := s.Acquire()
	s.Release(v)
	s.Release(v)
}

func TestCompactionBoundsRuns(t *testing.T) {
	s := New(6)
	s.FlushBytes = 128
	rng := prng.NewXoshiro256(1)
	for i := 0; i < 20000; i++ {
		s.Put(prng.Uint64n(rng, 5000), []byte{1, 2, 3, 4})
	}
	if s.Runs() > 8 {
		t.Fatalf("run stack grew unbounded: %d", s.Runs())
	}
	// Everything remains readable post-compaction.
	found := 0
	for k := uint64(0); k < 5000; k++ {
		if _, ok := s.Get(k); ok {
			found++
		}
	}
	if found < 4000 {
		t.Fatalf("only %d/5000 keys found after compaction", found)
	}
}

func TestDeleteBasic(t *testing.T) {
	s := New(8)
	if s.Delete(1) {
		t.Fatal("delete of absent key reported true")
	}
	if !s.Put(1, []byte("a")) {
		t.Fatal("first put must report insert")
	}
	if s.Put(1, []byte("b")) {
		t.Fatal("second put must report replace")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Delete(1) {
		t.Fatal("delete of live key reported false")
	}
	if s.Delete(1) {
		t.Fatal("double delete reported true")
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("deleted key still readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if !s.Put(1, []byte("c")) {
		t.Fatal("put over a tombstone must report insert")
	}
	if v, ok := s.Get(1); !ok || string(v) != "c" {
		t.Fatalf("Get after re-put = %q,%v", v, ok)
	}
}

func TestDeleteShadowsAcrossFreeze(t *testing.T) {
	s := New(9)
	s.FlushBytes = 256
	for i := uint64(0); i < 200; i++ {
		s.Put(i, []byte("live"))
	}
	// Deletes land in a newer memtable/run than the values they kill.
	for i := uint64(0); i < 200; i += 2 {
		if !s.Delete(i) {
			t.Fatalf("Delete(%d) reported absent", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		_, ok := s.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) ok=%v, want %v", i, ok, want)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestCompactDropsTombstones(t *testing.T) {
	s := New(10)
	s.FlushBytes = 512
	const n = 2000
	for i := uint64(0); i < n; i++ {
		s.Put(i, []byte("payload-xxxxxxxx"))
	}
	// Delete a majority, then compact: the footprint must shrink to
	// roughly the survivors — tombstones must not linger as entries.
	for i := uint64(0); i < n; i++ {
		if i%4 != 0 {
			s.Delete(i)
		}
	}
	beforeEntries, beforeBytes := s.RunEntries(), s.RunBytes()
	s.Compact()
	afterEntries, afterBytes := s.RunEntries(), s.RunBytes()
	if afterEntries >= beforeEntries || afterBytes >= beforeBytes {
		t.Fatalf("footprint did not shrink: entries %d -> %d, bytes %d -> %d",
			beforeEntries, afterEntries, beforeBytes, afterBytes)
	}
	if want := n / 4; afterEntries != want {
		t.Fatalf("post-compaction entries = %d, want exactly the %d survivors", afterEntries, want)
	}
	if s.Runs() != 1 {
		t.Fatalf("Runs = %d after full compaction, want 1", s.Runs())
	}
	for i := uint64(0); i < n; i++ {
		_, ok := s.Get(i)
		if want := i%4 == 0; ok != want {
			t.Fatalf("Get(%d) ok=%v after compaction, want %v", i, ok, want)
		}
	}
}

func TestBottomMergeDropsTombstones(t *testing.T) {
	// Drive enough churn through a tiny memtable that the freeze-path
	// merge (not an explicit Compact) repeatedly rebuilds the bottom
	// run; deleted keys must not survive in it forever.
	s := New(11)
	s.FlushBytes = 128
	const keys = 400
	for i := uint64(0); i < keys; i++ {
		s.Put(i, []byte{1, 2, 3, 4})
	}
	for i := uint64(0); i < keys; i++ {
		if i%8 != 0 {
			s.Delete(i)
		}
	}
	// Churn a small disjoint keyspace so compaction keeps folding the
	// old tombstones into the bottom.
	for r := 0; r < 40; r++ {
		for i := uint64(keys); i < keys+40; i++ {
			s.Put(i, []byte{5, 6, 7, 8})
		}
	}
	if got, want := s.Len(), keys/8+40; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Every entry beyond the live count is transient shadowing in the
	// upper runs; the bulk of the 350 dropped keys must be gone.
	if s.RunEntries() > 3*s.Len() {
		t.Fatalf("run entries %d dwarf live count %d; tombstones piling up", s.RunEntries(), s.Len())
	}
	for i := uint64(0); i < keys; i++ {
		_, ok := s.Get(i)
		if want := i%8 == 0; ok != want {
			t.Fatalf("Get(%d) ok=%v, want %v", i, ok, want)
		}
	}
}

func TestRangeMergedIterator(t *testing.T) {
	s := New(12)
	s.FlushBytes = 256 // several runs plus a live memtable
	ref := map[uint64][]byte{}
	rng := prng.NewXoshiro256(99)
	for i := 0; i < 5000; i++ {
		k := prng.Uint64n(rng, 600)
		switch prng.Uint64n(rng, 4) {
		case 0:
			if s.Delete(k) != (ref[k] != nil) {
				t.Fatalf("op %d: Delete(%d) disagrees with reference", i, k)
			}
			delete(ref, k)
		default:
			v := []byte{byte(i), byte(i >> 8)}
			s.Put(k, v)
			ref[k] = v
		}
	}
	check := func(lo, hi uint64) {
		t.Helper()
		var got []uint64
		last := uint64(0)
		s.Range(lo, hi, func(k uint64, v []byte) bool {
			if len(got) > 0 && k <= last {
				t.Fatalf("Range[%d,%d] emitted %d after %d: out of order", lo, hi, k, last)
			}
			last = k
			got = append(got, k)
			if want := ref[k]; string(v) != string(want) {
				t.Fatalf("Range[%d,%d] key %d = %v, want %v", lo, hi, k, v, want)
			}
			return true
		})
		want := 0
		for k := range ref {
			if k >= lo && k <= hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Range[%d,%d] yielded %d keys, want %d", lo, hi, len(got), want)
		}
	}
	check(0, ^uint64(0))
	check(100, 299)
	check(599, 599)
	check(700, 800) // empty
	// Early stop.
	n := 0
	s.Range(0, ^uint64(0), func(uint64, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early-stopped Range visited %d keys, want 10", n)
	}
}

func TestVsReferenceMap(t *testing.T) {
	s := New(7)
	s.FlushBytes = 1 << 11
	rng := prng.NewXoshiro256(21)
	ref := map[uint64]byte{}
	for i := 0; i < 30000; i++ {
		k := prng.Uint64n(rng, 2048)
		v := byte(i)
		s.Put(k, []byte{v})
		ref[k] = v
	}
	for k, v := range ref {
		got, ok := s.Get(k)
		if !ok || got[0] != v {
			t.Fatalf("Get(%d) = %v,%v, want %d", k, got, ok, v)
		}
	}
}

// TestSnapshotRangeStable pins the Snapshotter substrate: a pinned
// version's Range must see exactly the live state at freeze time,
// unaffected by later writes.
func TestSnapshotRangeStable(t *testing.T) {
	s := New(3)
	s.FlushBytes = 1 << 10
	for i := uint64(0); i < 500; i++ {
		s.Put(i, []byte{byte(i)})
	}
	s.Delete(7)
	v := s.Snapshot()
	defer s.Release(v)

	// Post-snapshot churn must be invisible to v.
	for i := uint64(0); i < 500; i += 2 {
		s.Delete(i)
	}
	s.Put(7, []byte{99})

	got := map[uint64]byte{}
	var prev uint64
	first := true
	v.Range(func(k uint64, val []byte) bool {
		if !first && k <= prev {
			t.Fatalf("Version.Range out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		got[k] = val[0]
		return true
	})
	if len(got) != 499 {
		t.Fatalf("snapshot saw %d keys, want 499", len(got))
	}
	if _, ok := got[7]; ok {
		t.Fatal("snapshot resurrected deleted key 7")
	}
	if got[3] != 3 {
		t.Fatalf("snapshot value for 3 = %d", got[3])
	}
}

// TestLoadShadowsAndCounts pins the recovery bulk-load: loaded pairs
// win over existing state and the live count stays exact.
func TestLoadShadowsAndCounts(t *testing.T) {
	s := New(5)
	s.Put(1, []byte{1})
	s.Put(2, []byte{2})
	s.Delete(2)
	s.Load([]uint64{2, 3}, [][]byte{{22}, {33}})
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for k, want := range map[uint64]byte{1: 1, 2: 22, 3: 33} {
		v, ok := s.Get(k)
		if !ok || v[0] != want {
			t.Fatalf("Get(%d) = %v,%v want %d", k, v, ok, want)
		}
	}
	// A later Put still shadows the loaded run.
	s.Put(3, []byte{44})
	if v, _ := s.Get(3); v[0] != 44 {
		t.Fatalf("post-load Put lost: %v", v)
	}
}

// BenchmarkMergeRuns times the compaction merge freeze runs when the
// stack passes six runs: three overlapping 4096-entry runs (random keys
// below 8192, tombstones on the multiples of 8) folded into one
// bottom-most run.
func BenchmarkMergeRuns(b *testing.B) {
	rng := prng.NewXoshiro256(3)
	rs := make([]*run, 3)
	for i := range rs {
		m := skiplist.New(uint64(i) + 1)
		for m.Len() < 4096 {
			k := prng.Uint64n(rng, 8192)
			if k%8 == 0 {
				m.Put(k, tombstone)
			} else {
				m.Put(k, make([]byte, 64))
			}
		}
		r := &run{}
		m.Scan(func(k uint64, v []byte) bool {
			r.keys = append(r.keys, k)
			r.values = append(r.values, v)
			return true
		})
		rs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mergeRuns(rs); len(out.keys) == 0 {
			b.Fatal("empty merge")
		}
	}
}
