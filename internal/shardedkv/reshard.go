package shardedkv

import (
	"time"

	"repro/internal/core"
)

// This file drives dynamic resharding: a background skew detector
// samples the per-shard counters (ops share from ShardStats, lock-wait
// fraction from the locks.Contended wrappers) over fixed observation
// windows and splits a shard that has sustained a configurable skew
// factor — the measured-saturation reaction of "Avoiding Scalability
// Collapse by Restricting Concurrency", applied to shard fission
// instead of admission. The split itself (shardmap.go) rendezvouses
// only the affected shard; the detector never stalls the store.

// ReshardConfig tunes the skew detector. The zero value of any field
// takes the documented default.
type ReshardConfig struct {
	// SkewFactor is the split threshold as a multiple of a fair shard
	// share: a shard is a candidate when its window ops share exceeds
	// SkewFactor / liveShards. Default 3 (a shard serving 3x its fair
	// share is a convoy, not noise).
	SkewFactor float64
	// Window is the observation-window length. Default 100ms.
	Window time.Duration
	// Sustain is how many consecutive windows a shard must qualify
	// before it splits — one-window spikes are noise. Default 2.
	Sustain int
	// MinOps is the minimum window op count (whole store) below which
	// no judgement is made; idle stores never split. Default 1024.
	MinOps uint64
	// MinContention is the minimum lock-wait fraction (contended
	// attempts / attempts, from the locks.Contended wrapper) a
	// candidate must show in the window: a skewed-but-uncontended
	// shard is merely popular, and splitting it buys nothing.
	// Default 0.02.
	MinContention float64
	// MaxShards bounds the live shard count (splits stop there).
	// Default 8x the initial count.
	MaxShards int
	// Manual disables the background detector: splits happen only via
	// ForceSplit. Tests and benchmarks that want deterministic split
	// points use this.
	Manual bool
}

// withDefaults fills zero fields.
func (c ReshardConfig) withDefaults(initialShards int) ReshardConfig {
	if c.SkewFactor <= 0 {
		c.SkewFactor = 3
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.Sustain <= 0 {
		c.Sustain = 2
	}
	if c.MinOps == 0 {
		c.MinOps = 1024
	}
	if c.MinContention == 0 {
		c.MinContention = 0.02
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 8 * initialShards
	}
	return c
}

// ReshardStats snapshots the resharding trajectory.
type ReshardStats struct {
	// Splits counts shards split since creation (each split retires
	// one shard and creates two).
	Splits uint64
	// Events counts reshard decisions: detector windows that split at
	// least one shard, plus one per successful ForceSplit.
	Events uint64
	// Shards is the current live shard count; Epoch the shard-map
	// generation (one per split).
	Shards int
	Epoch  uint64
}

// ReshardStats returns the store's resharding counters (zero-valued
// splits/events on a store without resharding).
func (s *Store) ReshardStats() ReshardStats {
	m := s.smap.Load()
	return ReshardStats{
		Splits: s.splits.Load(),
		Events: s.events.Load(),
		Shards: len(m.shards),
		Epoch:  m.epoch,
	}
}

// ForceSplit splits the shard currently owning k, regardless of skew.
// Reports whether a split happened (false when the shard budget is
// spent or the shard moved concurrently). Exposed for tests, the
// kvbench smoke path, and operators that know a hotspot in advance.
func (s *Store) ForceSplit(w *core.Worker, k uint64) bool {
	sh := s.smap.Load().locate(hashOf(k))
	if !s.split(w, sh) {
		return false
	}
	s.events.Add(1)
	return true
}

// reshardDetector is the background skew watcher.
type reshardDetector struct {
	cfg  ReshardConfig
	stop chan struct{}
	done chan struct{}
}

// startReshard records the reshard configuration and, unless Manual,
// spawns the detector goroutine. Called once from New.
func (s *Store) startReshard(cfg ReshardConfig) {
	cfg = cfg.withDefaults(s.NumShards())
	s.maxShards = cfg.MaxShards
	d := &reshardDetector{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	s.detector = d
	if cfg.Manual {
		close(d.done)
		return
	}
	go s.reshardLoop(d)
}

// StopReshard stops the background detector and waits for it to exit.
// Idempotent; a no-op on stores without resharding. The store remains
// fully usable (ForceSplit included) afterwards.
func (s *Store) StopReshard() {
	d := s.detector
	if d == nil || d.cfg.Manual {
		return
	}
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}

// shardWindow is one shard's counter snapshot for windowed deltas.
type shardWindow struct {
	ops, attempts, contended uint64
	sustained                int
}

// reshardLoop is the detector body: every Window it computes each live
// shard's op share and lock-wait fraction over the window (deltas
// against the previous tick) and splits any shard that qualified for
// Sustain consecutive windows. The loop owns its worker; splits
// rendezvous only the shard being split.
func (s *Store) reshardLoop(d *reshardDetector) {
	defer close(d.done)
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	prev := make(map[int]*shardWindow)
	ticker := time.NewTicker(d.cfg.Window)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		}
		m := s.smap.Load()
		cur := make(map[int]*shardWindow, len(m.shards))
		var total uint64
		type candidate struct {
			sh    *shard
			share float64
		}
		var cands []candidate
		for _, sh := range m.shards {
			st := sh.stats()
			win := &shardWindow{ops: st.Ops() + st.Scans, attempts: st.LockAttempts, contended: st.LockContended}
			cur[sh.id] = win
			p := prev[sh.id]
			if p == nil {
				// First window for this shard (new child or first
				// tick): its counters-since-birth are a valid window
				// delta (it was born at zero), so they stay in the
				// denominator — excluding them would inflate every
				// other shard's share right after a split — but the
				// shard itself is not judged until next tick.
				total += win.ops
				continue
			}
			win.sustained = p.sustained
			opsD := win.ops - p.ops
			total += opsD
			attD := win.attempts - p.attempts
			conD := win.contended - p.contended
			contFrac := 0.0
			if attD > 0 {
				contFrac = float64(conD) / float64(attD)
			}
			if contFrac >= d.cfg.MinContention {
				cands = append(cands, candidate{sh: sh, share: float64(opsD)})
			} else {
				win.sustained = 0
			}
		}
		if total < d.cfg.MinOps {
			// Too idle to judge; windows don't accumulate across lulls.
			for _, win := range cur {
				win.sustained = 0
			}
			prev = cur
			continue
		}
		// Clamp the share threshold below 1: on a small store (live
		// shards <= SkewFactor) the raw ratio is unreachable — a share
		// tops out at 1.0 — and the detector would be silently inert
		// exactly where a convoy hurts most. 0.9 still demands a
		// near-total monopoly before a two-shard store splits.
		threshold := min(d.cfg.SkewFactor/float64(len(m.shards)), 0.9)
		split := false
		for _, c := range cands {
			win := cur[c.sh.id]
			if c.share/float64(total) <= threshold {
				win.sustained = 0
				continue
			}
			win.sustained++
			if win.sustained < d.cfg.Sustain {
				continue
			}
			win.sustained = 0
			if s.split(w, c.sh) {
				split = true
			}
		}
		if split {
			s.events.Add(1)
		}
		prev = cur
	}
}
