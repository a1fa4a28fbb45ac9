// Package repro is a from-scratch Go reproduction of "Asymmetry-aware
// Scalable Locking" (LibASL, PPoPP 2022) grown into a networked,
// sharded KV service that applies the paper's idea at every layer:
// admission to a contended lock depends on who is asking — strong
// (big) entrants take the fast path, latency-tolerant (little)
// entrants stand by within an SLO-fed reorder window.
//
// The layers, bottom to top (ARCHITECTURE.md walks the same path in
// detail, with the conventions each layer relies on):
//
// # Lock reproduction
//
// internal/core holds the engine-independent LibASL logic: the AIMD
// reorder-window controller (Algorithm 2), the epoch registry, and
// the worker/core-class model — including the per-operation ClassHint
// that lets a serving boundary re-class a single operation without
// re-classing the goroutine. internal/locks holds the real lock
// algorithms (TAS/ticket/MCS/ShflLock-proportional baselines, the
// reorderable lock, ASLMutex) behind the worker-aware WLock
// interface, plus observability wrappers: locks.Contended counts real
// lock waits, locks.ClassProbe records the class each acquisition was
// observed under. internal/sim + internal/amp + internal/simlock form
// the deterministic discrete-event AMP simulator that regenerates the
// paper's figures (internal/figures; bench_test.go benchmarks them).
//
// # Serving layer
//
// internal/shardedkv shards a KV store so that every shard pairs one
// WLock (ASLMutex by default) with one pluggable single-writer engine
// (internal/storage/{hashkv,btree,lsm,skiplist}). Batched ops take
// each shard lock once; ordered scans collect under the lock and
// emit after release. Placement is dynamic: a copy-on-write shard map
// with stable ids and forward pointers lets a skew detector split
// sustained-hot shards without stalling the rest of the store.
// Store.As provides op-level class-override views — the library face
// of the ClassHint path. Store is the one front end: with durability
// on, writes append to a per-shard WAL under the shard lock and group-
// commit after release through the log's commit-leader election, and
// Flush is the durability barrier.
//
// # Network front end
//
// internal/kvserver serves the store over TCP with a length-prefixed
// binary protocol (docs/protocol.md is normative; a test pins it to
// the code). Every request carries an SLO class byte the server maps
// to the lock class for exactly that operation: interactive requests
// run big-class (ASL fast path), bulk requests run little-class
// (reorder standby) and pass a bounded per-shard admission gate — concurrency restriction
// at the serving boundary, with interactive bypass. Per-class SLO
// epochs feed the ASL window controllers from per-request latencies.
// internal/kvclient is the concurrent pipelining client (one
// multiplexed connection, calls matched by request id).
// cmd/kvserver is the standalone binary (clean SIGTERM shutdown);
// kvbench -net drives the whole grid over the wire.
//
// # Benchmarks and CI
//
// cmd/kvbench benchmarks the serving layer across engines, workload
// mixes (internal/workload) and locks — locally and over the network
// — and appends {commit, engine, mix, lock, ops_per_sec, p99, ...}
// records to BENCH_kvbench.json (cmd/kvbench/README.md documents
// every flag, row family and the record schema).
// .github/workflows/ci.yml gates every push on `make ci`: vet, the
// repolint contract checkers, gofmt, build, tests, the race detector
// over RACE_PKGS, the -short smoke paths, and net-smoke (a real
// server driven by a real client and shut down by SIGTERM).
//
// internal/analysis + cmd/repolint machine-check the concurrency
// contracts the layers above rely on: ClassHint set/clear pairing,
// the no-callbacks-under-a-shard-lock rule, the no-bare-TryAcquire
// probe convention, and append-only wire enums. `make lint` runs the suite
// as a `go vet -vettool`; ARCHITECTURE.md ("Enforced invariants")
// maps each pass to its prose rule.
package repro

// Version identifies this reproduction build.
const Version = "1.0.0"
