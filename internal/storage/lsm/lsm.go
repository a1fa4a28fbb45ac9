// Package lsm is a miniature log-structured merge store: an active
// memtable (skiplist), frozen immutable runs, and reference-counted
// versions used for LevelDB-style snapshots. It is the substrate of
// the LevelDB-like engine; the paper's db_bench randomread workload
// takes "a snapshot of internal database structures" under a global
// metadata lock — this package supplies the version/snapshot machinery
// and the engine in internal/dbs/ldb supplies the locking.
//
// Deletes are first-class: Delete writes a tombstone that shadows any
// older value of the key through Get and Range, and compaction drops
// tombstones whenever it produces the bottom-most run (nothing older
// remains to shadow), so deleted keys stop paying run-footprint and
// read-amplification rent. Range is a merged iterator over the
// memtable and the run stack with newest-wins shadowing, the same
// resolution order as Get.
package lsm

import (
	"sort"

	"repro/internal/storage/skiplist"
)

// tombstone marks a deleted key inside the memtable and runs. Matching
// is by backing-array identity, not content, so no caller-supplied
// value can collide with it.
var tombstone = []byte{0}

// isTomb reports whether v is the tombstone marker.
func isTomb(v []byte) bool { return len(v) == 1 && &v[0] == &tombstone[0] }

// run is one immutable sorted run (a flushed memtable).
type run struct {
	keys   []uint64
	values [][]byte
}

func (r *run) get(k uint64) ([]byte, bool) {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= k })
	if i < len(r.keys) && r.keys[i] == k {
		return r.values[i], true
	}
	return nil, false
}

// Version is an immutable view: a frozen memtable prefix plus the run
// stack at freeze time. Reads against a Version need no locks, exactly
// like reads against a LevelDB snapshot.
type Version struct {
	runs []*run // newest first
	refs int
	seq  uint64
}

// Seq returns the version's sequence number.
func (v *Version) Seq() uint64 { return v.seq }

// Get reads k from the version (newest run wins; a tombstone shadows
// older runs and reads as absent).
func (v *Version) Get(k uint64) ([]byte, bool) {
	for _, r := range v.runs {
		if val, ok := r.get(k); ok {
			if isTomb(val) {
				return nil, false
			}
			return val, true
		}
	}
	return nil, false
}

// Store is the mutable LSM. All mutating methods and version
// acquisition must be externally synchronised (the engine's metadata
// lock); reads through an acquired Version are lock-free.
type Store struct {
	mem      *skiplist.List
	versions *Version // current
	seq      uint64
	live     int
	// FlushBytes triggers a memtable freeze; zero means 1<<18.
	FlushBytes int
}

// New returns an empty store.
func New(seed uint64) *Store {
	return &Store{
		mem:      skiplist.New(seed),
		versions: &Version{seq: 0},
	}
}

func (s *Store) flushBytes() int {
	if s.FlushBytes == 0 {
		return 1 << 18
	}
	return s.FlushBytes
}

// Put writes k=v into the memtable, freezing it into a run when full.
// It returns true when k was not live before (an insert), false on a
// replace: the prior state comes back from the memtable write's own
// descent (PutPrev), and the run stack is consulted only when the
// memtable had no entry at all.
func (s *Store) Put(k uint64, v []byte) bool {
	prev, existed := s.mem.PutPrev(k, v)
	var wasLive bool
	if existed {
		wasLive = !isTomb(prev)
	} else {
		_, wasLive = s.versions.Get(k)
	}
	s.seq++
	if !wasLive {
		s.live++
	}
	if s.mem.Bytes() >= s.flushBytes() {
		s.freeze()
	}
	return !wasLive
}

// Delete removes k by writing a tombstone that shadows older runs; the
// tombstone itself is dropped when compaction reaches the bottom of
// the stack. Returns whether k was live. Deleting a dead key writes
// nothing — there is no older value to shadow.
func (s *Store) Delete(k uint64) bool {
	if v, ok := s.mem.Get(k); ok {
		if isTomb(v) {
			return false
		}
	} else if _, live := s.versions.Get(k); !live {
		return false
	}
	s.mem.Put(k, tombstone)
	s.seq++
	s.live--
	if s.mem.Bytes() >= s.flushBytes() {
		s.freeze()
	}
	return true
}

// Len returns the number of live keys.
func (s *Store) Len() int { return s.live }

// freeze turns the memtable into an immutable run and installs a new
// current version. Old versions remain readable by their holders. A
// run frozen onto an empty stack is bottom-most, so its tombstones
// have nothing to shadow and are dropped immediately.
func (s *Store) freeze() {
	bottom := len(s.versions.runs) == 0
	r := &run{}
	s.mem.Scan(func(k uint64, v []byte) bool {
		if bottom && isTomb(v) {
			return true
		}
		r.keys = append(r.keys, k)
		r.values = append(r.values, v)
		return true
	})
	newRuns := s.versions.runs
	if len(r.keys) > 0 {
		newRuns = append([]*run{r}, newRuns...)
	}
	// Trivial compaction: merge the oldest runs when the stack deepens,
	// keeping read amplification bounded. The merge output becomes the
	// bottom-most run, so mergeRuns drops tombstones.
	if len(newRuns) > 6 {
		merged := mergeRuns(newRuns[4:])
		newRuns = newRuns[:4:4]
		if len(merged.keys) > 0 {
			newRuns = append(newRuns, merged)
		}
	}
	s.versions = &Version{runs: newRuns, seq: s.seq}
	s.mem = skiplist.New(s.seq ^ 0x9e3779b97f4a7c15)
}

// mergeRuns merges sorted runs, newest first, into one. The result is
// always installed as the bottom-most run of the stack, so tombstones
// are resolved here and dropped: a deleted key vanishes from the
// output instead of shadowing runs that no longer exist below it.
//
// The merge is one k-way pass over the already-sorted runs: a min-heap
// of run cursors ordered by (next key, run age) pops every copy of a
// key newest first, so the first copy popped supplies the value (first
// holder wins) and the older copies behind it are skipped. The output
// is presized to the input's entry count, an upper bound.
func mergeRuns(rs []*run) *run {
	total := 0
	h := make([]mergeCursor, 0, len(rs))
	for age, r := range rs {
		total += len(r.keys)
		if len(r.keys) > 0 {
			h = append(h, mergeCursor{r: r, age: age})
		}
	}
	out := &run{keys: make([]uint64, 0, total), values: make([][]byte, 0, total)}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftCursor(h, i)
	}
	var last uint64
	first := true
	for len(h) > 0 {
		c := &h[0]
		if k := c.r.keys[c.pos]; first || k != last {
			first, last = false, k
			if v := c.r.values[c.pos]; !isTomb(v) {
				out.keys = append(out.keys, k)
				out.values = append(out.values, v)
			}
		}
		if c.pos++; c.pos == len(c.r.keys) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftCursor(h, 0)
	}
	return out
}

// mergeCursor is one run's read position in mergeRuns; age is the
// run's index in the newest-first stack (lower is newer).
type mergeCursor struct {
	r   *run
	age int
	pos int
}

// before orders cursors by next key, newest run first on a tie.
func (c *mergeCursor) before(d *mergeCursor) bool {
	ck, dk := c.r.keys[c.pos], d.r.keys[d.pos]
	return ck < dk || ck == dk && c.age < d.age
}

// siftCursor restores the min-heap order of h below index i.
func siftCursor(h []mergeCursor, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Compact freezes the memtable and folds the whole run stack into one
// tombstone-free run (a full major compaction). Pinned versions keep
// reading their old stacks.
func (s *Store) Compact() {
	if s.mem.Len() == 0 && len(s.versions.runs) <= 1 {
		// Already fully compacted: every path that leaves a single run
		// (bottom-most freeze or merge) dropped its tombstones.
		return
	}
	s.freeze()
	if len(s.versions.runs) == 0 {
		return
	}
	merged := mergeRuns(s.versions.runs)
	var runs []*run
	if len(merged.keys) > 0 {
		runs = []*run{merged}
	}
	s.versions = &Version{runs: runs, seq: s.seq}
}

// Get reads k from the live store (memtable, then runs; a tombstone at
// any level reads as absent). Must be called under the metadata lock;
// snapshot reads use Acquire instead.
func (s *Store) Get(k uint64) ([]byte, bool) {
	if v, ok := s.mem.Get(k); ok {
		if isTomb(v) {
			return nil, false
		}
		return v, true
	}
	return s.versions.Get(k)
}

// Range calls fn for each live key in [lo, hi] in ascending order until
// fn returns false: a merged iterator over the memtable and every run,
// resolving each key at its newest occurrence (memtable first, then
// runs newest-to-oldest) and skipping tombstones — the same shadowing
// order as Get. Must be called under the metadata lock.
func (s *Store) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	mem := s.mem.Seek(lo)
	runs := s.versions.runs
	idx := make([]int, len(runs))
	for i, r := range runs {
		idx[i] = sort.Search(len(r.keys), func(j int) bool { return r.keys[j] >= lo })
	}
	for {
		// Smallest in-range key across all sources.
		var best uint64
		have := false
		if mem.Valid() && mem.Key() <= hi {
			best, have = mem.Key(), true
		}
		for i, r := range runs {
			if idx[i] < len(r.keys) && r.keys[idx[i]] <= hi {
				if k := r.keys[idx[i]]; !have || k < best {
					best, have = k, true
				}
			}
		}
		if !have {
			return
		}
		// The newest source holding best supplies the value; every
		// source holding best advances past its shadowed copy.
		var v []byte
		picked := false
		if mem.Valid() && mem.Key() == best {
			v, picked = mem.Value(), true
			mem.Next()
		}
		for i, r := range runs {
			if idx[i] < len(r.keys) && r.keys[idx[i]] == best {
				if !picked {
					v, picked = r.values[idx[i]], true
				}
				idx[i]++
			}
		}
		if !isTomb(v) && !fn(best, v) {
			return
		}
	}
}

// Range calls fn for each live key in the version in ascending order
// until fn returns false — the run-stack half of Store.Range, with the
// same newest-wins shadowing and tombstone skipping. A Version is
// immutable, so unlike Store.Range this needs no external lock; it is
// the read side of the Snapshotter capability used by checkpoint
// dumps.
func (v *Version) Range(fn func(k uint64, val []byte) bool) {
	runs := v.runs
	idx := make([]int, len(runs))
	for {
		var best uint64
		have := false
		for i, r := range runs {
			if idx[i] < len(r.keys) {
				if k := r.keys[idx[i]]; !have || k < best {
					best, have = k, true
				}
			}
		}
		if !have {
			return
		}
		var val []byte
		picked := false
		for i, r := range runs {
			if idx[i] < len(r.keys) && r.keys[idx[i]] == best {
				if !picked {
					val, picked = r.values[idx[i]], true
				}
				idx[i]++
			}
		}
		if !isTomb(val) && !fn(best, val) {
			return
		}
	}
}

// Snapshot freezes the memtable and pins the resulting version: a
// stable view of the full store contents whose reads need no lock.
// Must be called under the metadata lock; pair with Release.
func (s *Store) Snapshot() *Version {
	if s.mem.Len() > 0 {
		s.freeze()
	}
	return s.Acquire()
}

// Load bulk-merges pairs into the store as one immutable run placed
// newest in the stack, so loaded pairs shadow any existing value for
// the same key. keys must be strictly ascending and aligned with
// values; no pair may be a tombstone. This is the recovery fast path:
// a checkpoint's worth of state lands in one run with no memtable
// churn or per-op freeze checks.
func (s *Store) Load(keys []uint64, values [][]byte) {
	if len(keys) == 0 {
		return
	}
	if s.mem.Len() > 0 {
		// The memtable would shadow the loaded run; fold it below.
		s.freeze()
	}
	for _, k := range keys {
		if _, live := s.versions.Get(k); !live {
			s.live++
		}
	}
	r := &run{keys: keys, values: values}
	s.seq++
	s.versions = &Version{runs: append([]*run{r}, s.versions.runs...), seq: s.seq}
}

// Acquire pins and returns the current version (snapshot acquisition;
// LevelDB's db_bench randomread does this per read under the global
// mutex).
func (s *Store) Acquire() *Version {
	s.versions.refs++
	return s.versions
}

// Release unpins a version previously acquired.
func (s *Store) Release(v *Version) {
	v.refs--
	if v.refs < 0 {
		panic("lsm: version released more times than acquired")
	}
}

// Refs exposes the current version's pin count (tests).
func (s *Store) Refs() int { return s.versions.refs }

// MemLen returns the memtable key count (tests).
func (s *Store) MemLen() int { return s.mem.Len() }

// Runs returns the current run-stack depth (tests).
func (s *Store) Runs() int { return len(s.versions.runs) }

// RunEntries returns the total entry count across the current
// version's runs, tombstones included — the footprint compaction is
// meant to shrink.
func (s *Store) RunEntries() int {
	n := 0
	for _, r := range s.versions.runs {
		n += len(r.keys)
	}
	return n
}

// RunBytes returns the approximate byte footprint of the current
// version's runs (8 per key plus payload, the memtable's accounting).
func (s *Store) RunBytes() int {
	n := 0
	for _, r := range s.versions.runs {
		n += 8 * len(r.keys)
		for _, v := range r.values {
			n += len(v)
		}
	}
	return n
}
