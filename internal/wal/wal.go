// Package wal implements the append-only write-ahead log underneath the
// durable trajectory store: a single file of length-prefixed, CRC32C-framed
// records. The framing is deliberately minimal — every record is
//
//	[uint32 LE body length][uint32 LE CRC32C of body][body]
//	body := [1 type byte][payload]
//
// so recovery is a single forward scan: each frame either checks out in
// full (length plausible, checksum matches) and is replayed, or the scan
// stops and the file is truncated at the last intact frame. A torn tail —
// the normal result of crashing mid-append — is therefore indistinguishable
// from a clean end-of-log, which is exactly the crash contract the store's
// recovery protocol is built on (DESIGN.md §3.10).
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"sitm/internal/faultfs"
)

// castagnoli is the CRC32C polynomial table; Castagnoli has hardware
// support on amd64/arm64, so framing overhead stays negligible next to
// the write itself.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 8
	// MaxBody bounds one record body (type byte + payload). Any frame
	// whose header claims more is treated as a torn/corrupt tail: a
	// valid writer never produces it, and the bound keeps a scribbled
	// length field from provoking a giant allocation during recovery.
	MaxBody = 1 << 28
)

// Log is an append-only record log. Appends are buffered; Sync flushes and
// fsyncs. All methods are safe for concurrent use, though callers needing
// a specific interleaving of appends (the store's dictionary deltas
// before the rows that use them) serialize externally.
type Log struct {
	path string

	mu sync.Mutex
	// f is the underlying file, positioned at the end of the last intact
	// record after Open. It is a faultfs.File so tests can inject write
	// and fsync failures at the syscall boundary.
	//sitm:guardedby mu
	f faultfs.File
	// w buffers appends so one logical record is one (or few) syscalls.
	//sitm:guardedby mu
	w *bufio.Writer
	// size is the logical log size: every byte appended so far, including
	// bytes still sitting in the buffer.
	//sitm:guardedby mu
	size int64
	// err is the first write/flush failure; once set, the log is wedged
	// and every later Append/Sync returns it. Durability code must treat
	// the first error as fatal — retrying appends after a short write
	// would interleave garbage into the frame stream.
	//sitm:guardedby mu
	err error
}

// Open opens (creating if absent) the log at path, replays every intact
// record through replay in order, truncates any torn or corrupt tail, and
// returns the log positioned for appending. replay may be nil to skip
// record delivery (the tail is still validated and truncated). A non-nil
// replay error aborts Open.
func Open(path string, replay func(typ byte, payload []byte) error) (*Log, error) {
	return OpenFS(faultfs.OS, path, replay)
}

// OpenFS is Open through an explicit filesystem; production code uses
// faultfs.OS, fault-injection tests pass a faultfs.Injector.
func OpenFS(fsys faultfs.FS, path string, replay func(typ byte, payload []byte) error) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := scan(f, replay)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), size: valid}, nil
}

// Create opens a brand-new empty log at path, failing if the file already
// exists. Checkpoint rotation uses it so a rotation can never silently
// adopt a stale file's contents.
func Create(path string) (*Log, error) {
	return CreateFS(faultfs.OS, path)
}

// CreateFS is Create through an explicit filesystem.
func CreateFS(fsys faultfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// ScanFS replays every intact record of the log at path without opening it
// for writing and without truncating a torn tail, returning the number of
// valid bytes. A missing file is an empty log (0, nil): read-only opens
// must not create files as a side effect. The replayed prefix is exactly
// what Open would recover — ScanFS is the read-only half of the crash
// contract.
func ScanFS(fsys faultfs.FS, path string, replay func(typ byte, payload []byte) error) (int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	valid, err := scan(f, replay)
	if err != nil {
		return 0, fmt.Errorf("wal %s: %w", path, err)
	}
	return valid, nil
}

// scan walks the frame stream from the start of f, replaying intact
// records, and returns the offset of the first byte past the last record
// that should survive.
func scan(f faultfs.File, replay func(typ byte, payload []byte) error) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var (
		valid  int64
		header [headerSize]byte
		body   []byte
	)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// Clean EOF or a partial header: end of log / torn tail.
			return valid, nil
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > MaxBody {
			return valid, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, nil
		}
		if crc32.Checksum(body, castagnoli) != sum {
			return valid, nil
		}
		if replay != nil {
			if err := replay(body[0], body[1:]); err != nil {
				return 0, err
			}
		}
		valid += headerSize + int64(n)
	}
}

// Append writes one record. The payload is copied into the write buffer
// before return, so the caller may reuse it. Append does not sync; call
// Sync to make the log durable up to this point.
func (l *Log) Append(typ byte, payload []byte) error {
	if len(payload)+1 > MaxBody {
		return fmt.Errorf("wal %s: record body %d exceeds MaxBody", l.path, len(payload)+1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var header [headerSize]byte
	n := uint32(len(payload) + 1)
	binary.LittleEndian.PutUint32(header[0:4], n)
	sum := crc32.Update(0, castagnoli, []byte{typ})
	sum = crc32.Update(sum, castagnoli, payload)
	binary.LittleEndian.PutUint32(header[4:8], sum)
	if _, err := l.w.Write(header[:]); err != nil {
		l.err = err
		return err
	}
	if err := l.w.WriteByte(typ); err != nil {
		l.err = err
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.err = err
		return err
	}
	l.size += headerSize + int64(n)
	return nil
}

// Sync flushes buffered appends and fsyncs the file. After Sync returns
// nil, every record appended before the call survives a crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Size returns the logical log size in bytes: everything appended so far,
// whether flushed or still buffered.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the file path the log writes to.
func (l *Log) Path() string { return l.path }

// Close flushes, fsyncs, and closes the log. It returns the sticky write
// error if the log is wedged, else the first failure among flush, sync,
// and close.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	f := l.f
	l.f = nil
	if l.err != nil {
		f.Close()
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		f.Close()
		l.err = err
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.err = err
		return err
	}
	if err := f.Close(); err != nil {
		l.err = err
		return err
	}
	return nil
}
