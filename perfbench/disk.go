package main

import (
	"errors"
	"os"
	"syscall"
	"time"

	"repro/internal/wal"
)

// flushLatency is the emulated device's cache-flush time: what one
// fsync of a file or directory costs in durable-lsm.
//
// The log's files are real files, written through the page cache as
// usual; only the flush is emulated. On a shared host a real fsync
// takes whatever the other tenants' disk traffic leaves, and every
// sync-acked Put waits for one: the interactive p99 moved between 0.56
// and 2.6 ms from one set of ten runs to the next, and its spread within
// a set reached 0.94. A fixed flush keeps what the program decides — how
// many flushes it issues, how many records each covers, who waits for
// them — and takes out the device's share, the way amp-hotshard
// emulates asymmetric cores through CSPad.
const flushLatency = 100 * time.Microsecond

// osFS is the real file system with the flags the wal package's
// default uses; wal does not export its own.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (wal.File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

func (osFS) CreateTrunc(name string) (wal.File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// emulatedDisk is the real file system with every fsync replaced by a
// flush of flushLatency.
type emulatedDisk struct{ osFS }

func (emulatedDisk) SyncDir(string) error { return flush() }

func (d emulatedDisk) Create(name string) (wal.File, error) {
	f, err := d.osFS.Create(name)
	if err != nil {
		return nil, err
	}
	return emulatedFile{f}, nil
}

func (d emulatedDisk) CreateTrunc(name string) (wal.File, error) {
	f, err := d.osFS.CreateTrunc(name)
	if err != nil {
		return nil, err
	}
	return emulatedFile{f}, nil
}

type emulatedFile struct{ wal.File }

func (emulatedFile) Sync() error { return flush() }

// flush blocks the calling thread in the kernel for flushLatency, as a
// real fsync blocks it; time.Sleep, served by the runtime's timers,
// measured about 1 ms for any sleep this short on a 2-vCPU Linux VM.
func flush() error {
	ts := syscall.NsecToTimespec(int64(flushLatency))
	for {
		var left syscall.Timespec
		err := syscall.Nanosleep(&ts, &left)
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
		ts = left
	}
}
