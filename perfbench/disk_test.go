package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEmulatedDiskFlushes checks that the emulated disk writes real
// files and that each fsync, of a file or a directory, blocks for the
// emulated flush.
func TestEmulatedDiskFlushes(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "seg")
	var fs emulatedDisk
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("record")); err != nil {
		t.Fatal(err)
	}
	for _, sync := range []func() error{f.Sync, func() error { return fs.SyncDir(dir) }} {
		t0 := time.Now()
		if err := sync(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < flushLatency {
			t.Errorf("flush took %v, want at least %v", d, flushLatency)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(name); err != nil || string(b) != "record" {
		t.Fatalf("file holds %q, %v", b, err)
	}
	if _, err := fs.Create(name); err == nil {
		t.Fatal("Create overwrote an existing segment")
	}
}
