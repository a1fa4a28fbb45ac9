// Integration tests: a live server driven through the real client
// (package kvserver_test so kvclient can be imported without a cycle).
package kvserver_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/shardedkv"
)

// startServer builds a store from scfg, wraps it in a server with
// cfg's knobs, and returns the server plus its address. Cleanup is
// registered on t.
func startServer(t *testing.T, scfg shardedkv.Config, mod func(*kvserver.Config)) (*kvserver.Server, string) {
	t.Helper()
	st := shardedkv.New(scfg)
	cfg := kvserver.Config{
		Store:          st,
		SLOInteractive: 100 * time.Microsecond,
		SLOBulk:        2 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := kvserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func dial(t *testing.T, addr string) *kvclient.Client {
	t.Helper()
	cl, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClientServerBasic walks every operation once over the wire.
func TestClientServerBasic(t *testing.T) {
	_, addr := startServer(t, shardedkv.Config{Shards: 4}, nil)
	cl := dial(t, addr)

	if _, found, err := cl.Get(kvserver.ClassInteractive, 1); err != nil || found {
		t.Fatalf("get on empty store: found=%v err=%v", found, err)
	}
	ins, err := cl.Put(kvserver.ClassInteractive, 1, []byte("one"))
	if err != nil || !ins {
		t.Fatalf("put: inserted=%v err=%v", ins, err)
	}
	ins, err = cl.Put(kvserver.ClassBulk, 1, []byte("uno"))
	if err != nil || ins {
		t.Fatalf("overwrite put: inserted=%v err=%v", ins, err)
	}
	v, found, err := cl.Get(kvserver.ClassBulk, 1)
	if err != nil || !found || string(v) != "uno" {
		t.Fatalf("get: %q found=%v err=%v", v, found, err)
	}

	if _, err := cl.MultiPut(kvserver.ClassBulk, []shardedkv.Pair{
		{Key: 2, Value: []byte("two")}, {Key: 3, Value: []byte("three")},
	}); err != nil {
		t.Fatal(err)
	}
	vals, founds, err := cl.MultiGet(kvserver.ClassInteractive, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !founds[0] || !founds[1] || !founds[2] || founds[3] {
		t.Fatalf("multiget founds: %v", founds)
	}
	if string(vals[1]) != "two" {
		t.Fatalf("multiget vals: %q", vals[1])
	}

	kvs, more, err := cl.Range(kvserver.ClassBulk, 0, 100, 0)
	if err != nil || more {
		t.Fatalf("range: more=%v err=%v", more, err)
	}
	if len(kvs) != 3 || kvs[0].Key != 1 || kvs[2].Key != 3 {
		t.Fatalf("range pairs: %v", kvs)
	}
	kvs, more, err = cl.Range(kvserver.ClassBulk, 0, 100, 2)
	if err != nil || !more || len(kvs) != 2 {
		t.Fatalf("limited range: %d pairs, more=%v err=%v", len(kvs), more, err)
	}

	present, err := cl.Delete(kvserver.ClassInteractive, 2)
	if err != nil || !present {
		t.Fatalf("delete: present=%v err=%v", present, err)
	}
	if err := cl.Flush(kvserver.ClassBulk); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Interactive.Ops == 0 || st.Bulk.Ops == 0 {
		t.Fatalf("per-class ops not counted: %+v", st)
	}
	if st.Shards != 4 || st.Conns != 1 {
		t.Fatalf("stats topology: %+v", st)
	}
}

// TestClientVsModelLinearizability runs concurrent clients, each
// owning a disjoint key stripe with a local model, checking every
// response against the model and the final state against a full scan.
// Classes alternate per op, so interactive and bulk interleave on
// every connection.
func TestClientVsModelLinearizability(t *testing.T) {
	for _, eng := range shardedkv.AllEngines() {
		t.Run(eng.Name, func(t *testing.T) {
			_, addr := startServer(t, shardedkv.Config{Shards: 4, NewEngine: eng.New}, nil)

			const workers = 4
			opsPer := 1200
			if testing.Short() {
				opsPer = 250
			}
			keysPer := uint64(128)
			models := make([]map[uint64]string, workers)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for wi := 0; wi < workers; wi++ {
				models[wi] = make(map[uint64]string)
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					cl, err := kvclient.Dial(addr)
					if err != nil {
						errs <- err
						return
					}
					defer cl.Close()
					model := models[wi]
					rng := prng.NewSplitMix64(uint64(wi) * 7919)
					base := uint64(wi) << 32
					for op := 0; op < opsPer; op++ {
						k := base + rng.Uint64()%keysPer
						class := kvserver.ClassInteractive
						if op%2 == 1 {
							class = kvserver.ClassBulk
						}
						switch rng.Uint64() % 4 {
						case 0, 1: // put
							val := fmt.Sprintf("w%d-%d", wi, op)
							ins, err := cl.Put(class, k, []byte(val))
							if err != nil {
								errs <- err
								return
							}
							_, had := model[k]
							if ins == had {
								errs <- fmt.Errorf("worker %d op %d: put inserted=%v but model had=%v", wi, op, ins, had)
								return
							}
							model[k] = val
						case 2: // get
							v, found, err := cl.Get(class, k)
							if err != nil {
								errs <- err
								return
							}
							want, had := model[k]
							if found != had || (had && string(v) != want) {
								errs <- fmt.Errorf("worker %d op %d: get %q/%v, model %q/%v", wi, op, v, found, want, had)
								return
							}
						case 3: // delete
							present, err := cl.Delete(class, k)
							if err != nil {
								errs <- err
								return
							}
							_, had := model[k]
							if present != had {
								errs <- fmt.Errorf("worker %d op %d: delete present=%v, model had=%v", wi, op, present, had)
								return
							}
							delete(model, k)
						}
					}
					// Stripe-wide final check over one batched read.
					keys := make([]uint64, 0, keysPer)
					for k := base; k < base+keysPer; k++ {
						keys = append(keys, k)
					}
					vals, founds, err := cl.MultiGet(kvserver.ClassBulk, keys)
					if err != nil {
						errs <- err
						return
					}
					for i, k := range keys {
						want, had := model[k]
						if founds[i] != had || (had && string(vals[i]) != want) {
							errs <- fmt.Errorf("worker %d final: key %d got %q/%v want %q/%v", wi, k, vals[i], founds[i], want, had)
							return
						}
					}
				}(wi)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Global final state: one full scan must equal the union of
			// the models.
			cl := dial(t, addr)
			total := 0
			for _, m := range models {
				total += len(m)
			}
			kvs, more, err := cl.Range(kvserver.ClassBulk, 0, ^uint64(0), 0)
			if err != nil || more {
				t.Fatalf("final scan: more=%v err=%v", more, err)
			}
			if len(kvs) != total {
				t.Fatalf("final scan saw %d keys, models hold %d", len(kvs), total)
			}
			for _, kv := range kvs {
				m := models[kv.Key>>32]
				if want, ok := m[kv.Key]; !ok || string(kv.Value) != want {
					t.Fatalf("final scan key %d: %q, model %q/%v", kv.Key, kv.Value, want, ok)
				}
			}
		})
	}
}

// TestClassMappingAtLock is the class-mapping contract test: every
// interactive request must reach the shard lock as big-class and
// every bulk request as little-class, whatever goroutine serves the
// connection. Probe-wrapped locks observe the effective class.
func TestClassMappingAtLock(t *testing.T) {
	var mu sync.Mutex
	var probes []*locks.ClassProbe
	scfg := shardedkv.Config{
		Shards: 4,
		NewLock: func() locks.WLock {
			p := locks.WithClassProbe(locks.FactoryASL()())
			mu.Lock()
			probes = append(probes, p)
			mu.Unlock()
			return p
		},
	}
	_, addr := startServer(t, scfg, nil)
	cl := dial(t, addr)

	sum := func() locks.ClassProbeStats {
		mu.Lock()
		defer mu.Unlock()
		var s locks.ClassProbeStats
		for _, p := range probes {
			st := p.Stats()
			s.BigAcquires += st.BigAcquires
			s.LittleAcquires += st.LittleAcquires
		}
		return s
	}

	const n = 50
	for i := uint64(0); i < n; i++ {
		if _, err := cl.Put(kvserver.ClassInteractive, i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	after := sum()
	if after.BigAcquires != n {
		t.Fatalf("interactive ops: big acquires = %d, want %d", after.BigAcquires, n)
	}
	if after.LittleAcquires != 0 {
		t.Fatalf("interactive ops leaked %d little-class acquires", after.LittleAcquires)
	}

	for i := uint64(0); i < n; i++ {
		if _, _, err := cl.Get(kvserver.ClassBulk, i); err != nil {
			t.Fatal(err)
		}
	}
	end := sum()
	if got := end.LittleAcquires; got != n {
		t.Fatalf("bulk ops: little acquires = %d, want %d", got, n)
	}
	if end.BigAcquires != after.BigAcquires {
		t.Fatalf("bulk ops leaked big-class acquires: %d -> %d", after.BigAcquires, end.BigAcquires)
	}
}

// TestAdmissionOverServer pins one bulk op inside the (single-slot,
// no-waiting) gate via a second in-flight bulk request and asserts a
// concurrent one is shed with StatusErrAdmission while interactive
// requests sail through.
func TestAdmissionOverServer(t *testing.T) {
	scfg := shardedkv.Config{Shards: 1}
	_, addr := startServer(t, scfg, func(c *kvserver.Config) {
		c.Admission = kvserver.AdmissionConfig{BulkPerShard: 1, BulkWaiters: -1}
	})

	// Hold the single bulk slot by keeping a slow bulk op in flight:
	// many concurrent bulk writers on one connection-per-goroutine.
	const writers = 8
	var rejected, succeeded int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := kvclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < 300; j++ {
				_, err := cl.Put(kvserver.ClassBulk, uint64(j), []byte("x"))
				mu.Lock()
				if err != nil {
					if !kvclient.IsAdmissionRejected(err) {
						mu.Unlock()
						t.Errorf("unexpected error: %v", err)
						return
					}
					rejected++
				} else {
					succeeded++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if succeeded == 0 {
		t.Fatal("every bulk op rejected — gate wedged")
	}
	if rejected == 0 {
		t.Skip("no contention materialised (single-core runner?); gate bounds covered by unit tests")
	}

	// Interactive traffic must never be shed, even with the gate full.
	cl := dial(t, addr)
	for i := 0; i < 100; i++ {
		if _, err := cl.Put(kvserver.ClassInteractive, uint64(i), []byte("y")); err != nil {
			t.Fatalf("interactive op rejected: %v", err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BulkRejected == 0 {
		t.Fatalf("server did not count its rejections: %+v", st)
	}
	if st.Interactive.Errors != 0 {
		t.Fatalf("interactive errors: %+v", st)
	}
}

// TestGracefulClose closes the server under load: Close must return,
// all in-flight calls must resolve (success or error, never a hang),
// and later calls must fail fast.
func TestGracefulClose(t *testing.T) {
	srv, addr := startServer(t, shardedkv.Config{Shards: 2}, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := kvclient.Dial(addr)
			if err != nil {
				return
			}
			defer cl.Close()
			for k := uint64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Put(kvserver.ClassInteractive, k, []byte("v")); err != nil {
					return // server went away mid-run: expected
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with connections in flight")
	}
	close(stop)
	wg.Wait()

	if _, err := kvclient.Dial(addr); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestBadHandshakeAndOversizeFrame: protocol violations cost the
// offender its connection, nothing more.
func TestBadHandshakeAndOversizeFrame(t *testing.T) {
	_, addr := startServer(t, shardedkv.Config{Shards: 1}, nil)

	// Wrong magic: the server hangs up on the offender.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("BAD0"))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a bad handshake")
	}
	raw.Close()

	// A well-behaved client on the same server still works.
	cl := dial(t, addr)
	if _, err := cl.Put(kvserver.ClassInteractive, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Worker runs on: value of exactly MaxValueLen is legal.
	big := make([]byte, kvserver.MaxValueLen)
	if _, err := cl.Put(kvserver.ClassBulk, 2, big); err != nil {
		t.Fatalf("max-size value refused: %v", err)
	}
	v, found, err := cl.Get(kvserver.ClassBulk, 2)
	if err != nil || !found || len(v) != kvserver.MaxValueLen {
		t.Fatalf("max-size value round trip: len=%d found=%v err=%v", len(v), found, err)
	}
}
