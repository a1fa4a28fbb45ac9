package main

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/kvmodel"
)

// valueSize is the size of every value the benchmark writes: the
// 16-byte kvmodel.VerValue (key, version) followed by zero padding.
const valueSize = 64

// Writers of versions. A version is writer<<48 | seq, and each writer's
// seq only grows, so a read can be matched to a write that was issued.
const (
	writerPreload = iota
	writerInteractive
	writerBulk
	numWriters
)

const seqMask = 1<<48 - 1

var zeroPad [valueSize - 16]byte

// checkError is a failed output check: the program under test returned
// something it never should have. It fails the run as incorrect.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// checker validates every read against what the callers wrote.
type checker struct {
	seqs    [numWriters]counter
	written []atomic.Uint64 // bitmap: key has been written and acked
}

func newChecker(keys uint64) *checker {
	c := &checker{written: make([]atomic.Uint64, (keys+63)/64)}
	c.seqs[writerPreload].Store(1)
	return c
}

// nextVersion issues writer's next version. It is published before the
// write is sent, so a concurrent read of it passes the bound check.
func (c *checker) nextVersion(writer int) uint64 {
	return uint64(writer)<<48 | c.seqs[writer].Add(1)
}

func preloadVersion() uint64 { return writerPreload<<48 | 1 }

// fill writes the value for (k, ver) into buf, which must hold
// valueSize bytes, and returns it.
func fill(buf []byte, k, ver uint64) []byte {
	buf = buf[:valueSize]
	copy(buf, kvmodel.VerValue(k, ver))
	clear(buf[16:])
	return buf
}

func (c *checker) markWritten(k uint64) { c.written[k/64].Or(1 << (k % 64)) }

func (c *checker) wasWritten(k uint64) bool { return c.written[k/64].Load()&(1<<(k%64)) != 0 }

// checkRead validates one read of k. wasWritten is the written bit as
// loaded before the read was sent: a key written and acked before then
// must be found.
func (c *checker) checkRead(k uint64, v []byte, found, wasWritten bool) error {
	if !found {
		if wasWritten {
			return checkFailed("key %d was written but reads as missing", k)
		}
		return nil
	}
	ver, err := c.decode(k, v)
	if err != nil {
		return err
	}
	if seq := ver & seqMask; seq > c.seqs[ver>>48].Load() {
		return checkFailed("key %d reads version %#x, which was never issued", k, ver)
	}
	return nil
}

// decode checks that v is a well-formed value of key k and returns its
// version.
func (c *checker) decode(k uint64, v []byte) (uint64, error) {
	if len(v) != valueSize {
		return 0, checkFailed("key %d: value of %d bytes, want %d", k, len(v), valueSize)
	}
	ver, ok := kvmodel.DecodeVerValue(k, v[:16])
	if !ok {
		return 0, checkFailed("key %d: value encodes another key", k)
	}
	if !bytes.Equal(v[16:], zeroPad[:]) {
		return 0, checkFailed("key %d: value padding corrupted", k)
	}
	if w, seq := ver>>48, ver&seqMask; w >= numWriters || seq == 0 {
		return 0, checkFailed("key %d: malformed version %#x", k, ver)
	}
	return ver, nil
}
