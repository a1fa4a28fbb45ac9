package kvclient

import (
	"bytes"
	"testing"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// Get, MultiGet and Range return values that alias the response frame
// instead of copies. These tests pin the two properties that make that
// safe: each call's frame is its own (a later call on the same client
// never rewrites an earlier result), and each value is capacity-limited
// to its own bytes (an append to one reallocates instead of
// overwriting its neighbour in the frame).

const aliasKeys = 32

func aliasValue(k uint64, gen byte) []byte {
	return bytes.Repeat([]byte{byte(k), gen}, 4)
}

func aliasClient(t *testing.T) *Client {
	t.Helper()
	srv, err := kvserver.New(kvserver.Config{Store: shardedkv.New(shardedkv.Config{Shards: 4})})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func aliasFill(t *testing.T, cl *Client, gen byte) {
	t.Helper()
	for k := uint64(0); k < aliasKeys; k++ {
		if _, err := cl.Put(kvserver.ClassInteractive, k, aliasValue(k, gen)); err != nil {
			t.Fatal(err)
		}
	}
}

// aliasReads issues one Get, one MultiGet over every key and one full
// Range, returning the values in key order (the Get's first).
func aliasReads(t *testing.T, cl *Client) (get []byte, multi [][]byte, rng []shardedkv.Pair) {
	t.Helper()
	get, found, err := cl.Get(kvserver.ClassInteractive, 7)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	keys := make([]uint64, aliasKeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	multi, _, err = cl.MultiGet(kvserver.ClassInteractive, keys)
	if err != nil {
		t.Fatal(err)
	}
	rng, _, err = cl.Range(kvserver.ClassBulk, 0, aliasKeys-1, 0)
	if err != nil || len(rng) != aliasKeys {
		t.Fatalf("Range: %d pairs, err=%v", len(rng), err)
	}
	return get, multi, rng
}

func wantValue(t *testing.T, what string, k uint64, got []byte, gen byte) {
	t.Helper()
	if want := aliasValue(k, gen); !bytes.Equal(got, want) {
		t.Fatalf("%s key %d = %x, want %x", what, k, got, want)
	}
}

func TestResultsSurviveLaterCalls(t *testing.T) {
	cl := aliasClient(t)
	aliasFill(t, cl, 1)
	get, multi, rng := aliasReads(t, cl)
	// Overwrite every key and read everything back through the same
	// client: new frames, new values.
	aliasFill(t, cl, 2)
	get2, multi2, rng2 := aliasReads(t, cl)
	wantValue(t, "second Get", 7, get2, 2)
	wantValue(t, "first Get", 7, get, 1)
	for k := uint64(0); k < aliasKeys; k++ {
		wantValue(t, "second MultiGet", k, multi2[k], 2)
		wantValue(t, "second Range", k, rng2[k].Value, 2)
		wantValue(t, "first MultiGet", k, multi[k], 1)
		wantValue(t, "first Range", k, rng[k].Value, 1)
	}
}

func TestAppendDoesNotClobberNeighbour(t *testing.T) {
	cl := aliasClient(t)
	aliasFill(t, cl, 1)
	_, multi, rng := aliasReads(t, cl)
	// 32 bytes is more than the gap to the next value (5 bytes of
	// header in a MultiGet response, 12 in a Range one) plus the value
	// itself, and less than the frame left after any of the first
	// values: without a capacity limit the append would land in place.
	tail := bytes.Repeat([]byte{0xEE}, 32)
	for i := 0; i < aliasKeys/2; i++ {
		k := uint64(i)
		grown := append(multi[i], tail...)
		wantValue(t, "appended MultiGet prefix", k, grown[:len(multi[i])], 1)
		wantValue(t, "MultiGet neighbour", k+1, multi[i+1], 1)
		grown = append(rng[i].Value, tail...)
		wantValue(t, "appended Range prefix", k, grown[:len(rng[i].Value)], 1)
		wantValue(t, "Range neighbour", k+1, rng[i+1].Value, 1)
		if rng[i+1].Key != k+1 {
			t.Fatalf("Range neighbour key = %d, want %d", rng[i+1].Key, k+1)
		}
	}
}
