package kvserver_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// TestDurableServerCrashKeepsAckedWrites serves a durable plain Store
// under the default class policies and kills it after the wire acks:
// an interactive Put is acked only after its group commit, so it must
// survive Server.Close → Store.CrashDrop → shardedkv.Open; a bulk Put
// acks after the buffered append (no fsync of its own), and a
// successful OpFlush is what makes it durable. The WAL sync counter
// pins that the wire class byte, not the connection, picks the policy.
func TestDurableServerCrashKeepsAckedWrites(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	cfg := shardedkv.Config{Shards: 4, Durability: &shardedkv.DurabilityConfig{Dir: dir}}
	st, err := shardedkv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvserver.New(kvserver.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl := dial(t, srv.Addr().String())
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("v%d", k)) }

	for k := uint64(0); k < n; k++ {
		if _, err := cl.Put(kvserver.ClassInteractive, k, val(k)); err != nil {
			t.Fatalf("interactive Put(%d): %v", k, err)
		}
	}
	synced := st.WalStats().Syncs
	if synced == 0 {
		t.Fatal("interactive Puts acked without a single group commit")
	}
	for k := uint64(n); k < 2*n; k++ {
		if _, err := cl.Put(kvserver.ClassBulk, k, val(k)); err != nil {
			t.Fatalf("bulk Put(%d): %v", k, err)
		}
	}
	if got := st.WalStats().Syncs; got != synced {
		t.Fatalf("bulk Puts issued %d fsyncs; bulk acks must not wait for group commit", got-synced)
	}
	if err := cl.Flush(kvserver.ClassBulk); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st.WalStats().Syncs == synced {
		t.Fatal("Flush acked without syncing the bulk appends")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.CrashDrop()
	st2, err := shardedkv.Open(cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	defer st2.Close(w)
	for k := uint64(0); k < 2*n; k++ {
		if v, ok := st2.Get(w, k); !ok || !bytes.Equal(v, val(k)) {
			t.Errorf("after crash: Get(%d) = %q,%v; want %q", k, v, ok, val(k))
		}
	}
}
