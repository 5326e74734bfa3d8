// Package faultfs is the filesystem seam under the durability stack: the
// write-ahead log (internal/wal) and the durable store's checkpoint path
// (internal/store) perform every file operation through an FS value, so
// tests can inject the failures production storage actually produces —
// a full disk in the middle of a frame, an fsync that returns an error,
// a rename that never lands — without mocking the store itself.
//
// The package has exactly two implementations: OS, a thin passthrough to
// package os used by all production code, and Injector, a wrapper that
// fails selected operations according to a fault plan. Injected failures
// are indistinguishable from real ones by construction: they surface as
// ordinary errors from Read/Write/Sync/Rename, at the exact syscall boundary
// the real failure would occur, including the partially-performed side
// effects (a short write writes its prefix; a failed sync leaves the file
// dirty; a failed rename leaves the temp file behind).
package faultfs

import (
	"io"
	"os"
	"sync"
)

// File is the subset of *os.File the durability stack uses.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync fsyncs the file.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
}

// FS is the filesystem surface of the durability stack. All production
// code uses OS; tests substitute an Injector (or any other FS).
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp is os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

// Or returns fsys, or OS when fsys is nil — the default-resolution helper
// for option structs whose zero value means "the real filesystem".
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// Op names one injectable operation class.
type Op uint8

const (
	// OpWrite is File.Write (on any file opened through the FS).
	OpWrite Op = iota
	// OpSync is File.Sync.
	OpSync
	// OpCreate is OpenFile with O_CREATE, and CreateTemp.
	OpCreate
	// OpOpen is OpenFile without O_CREATE.
	OpOpen
	// OpRename is Rename.
	OpRename
	// OpRemove is Remove.
	OpRemove
	// OpRead is File.Read and File.ReadAt (on any file opened through
	// the FS), and ReadFile.
	OpRead
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpRead:
		return "read"
	}
	return "op?"
}

// Fault is one injection rule: the (After+1)th matching operation — and,
// when Times allows, later matches too — fails with Err.
type Fault struct {
	// Op selects the operation class the rule applies to.
	Op Op
	// Path restricts the rule to paths containing this substring
	// ("" matches every path). Rename and Remove match on the source path.
	Path string
	// After lets this many matching operations succeed before the rule
	// starts firing.
	After int
	// Times bounds how many matching operations fail once the rule fires;
	// 0 means every later match fails (a persistently-broken disk).
	Times int
	// Err is the injected error (e.g. syscall.ENOSPC, syscall.EIO).
	Err error
	// ShortWrite applies to OpWrite only: the first ShortWrite bytes of
	// the failing call are actually written before Err is returned — the
	// torn-frame shape a real ENOSPC mid-write produces.
	ShortWrite int
}

// Injector is an FS that fails operations according to a fault plan.
// Rules are evaluated in Add order; the first matching rule that decides
// to fire wins. Safe for concurrent use.
type Injector struct {
	base FS

	mu sync.Mutex
	//sitm:guardedby mu
	faults []*faultState
	//sitm:guardedby mu
	injected int
}

// faultState is a Fault plus its match counters.
type faultState struct {
	f     Fault
	seen  int // matching operations observed so far
	fired int // failures injected so far
}

// NewInjector returns an Injector over base (nil = the real filesystem)
// with an empty fault plan: every operation passes through until Add
// installs rules.
func NewInjector(base FS) *Injector {
	return &Injector{base: Or(base)}
}

// Add appends one rule to the fault plan.
func (in *Injector) Add(f Fault) {
	in.mu.Lock()
	in.faults = append(in.faults, &faultState{f: f})
	in.mu.Unlock()
}

// Reset drops every rule; subsequent operations pass through. The
// injected-failure count is kept.
func (in *Injector) Reset() {
	in.mu.Lock()
	in.faults = nil
	in.mu.Unlock()
}

// Injected returns how many operations have been failed so far.
func (in *Injector) Injected() int {
	in.mu.Lock()
	n := in.injected
	in.mu.Unlock()
	return n
}

// hit consults the fault plan for one operation. A nil result means the
// operation proceeds normally.
// hit reports the first matching armed fault for op against any of the
// given paths (rename passes both endpoints: a commit rename's temp
// source says nothing, its destination names the commit point).
func (in *Injector) hit(op Op, paths ...string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.faults {
		if st.f.Op != op {
			continue
		}
		if st.f.Path != "" {
			matched := false
			for _, p := range paths {
				if contains(p, st.f.Path) {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
		}
		st.seen++
		if st.seen <= st.f.After {
			return nil // rule matched but hasn't fired yet; first match wins
		}
		if st.f.Times > 0 && st.fired >= st.f.Times {
			return nil
		}
		st.fired++
		in.injected++
		return &st.f
	}
	return nil
}

// contains is strings.Contains, inlined to keep the guarded section free
// of package calls the lockguard analyzer would have to model.
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if f := in.hit(op, name); f != nil {
		return nil, &os.PathError{Op: op.String(), Path: name, Err: f.Err}
	}
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if f := in.hit(OpCreate, dir); f != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: f.Err}
	}
	f, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.hit(OpRename, oldpath, newpath); f != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: f.Err}
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f := in.hit(OpRemove, name); f != nil {
		return &os.PathError{Op: "remove", Path: name, Err: f.Err}
	}
	return in.base.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if f := in.hit(OpRead, name); f != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: f.Err}
	}
	return in.base.ReadFile(name)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) { return in.base.ReadDir(name) }
func (in *Injector) Stat(name string) (os.FileInfo, error)      { return in.base.Stat(name) }

// faultFile routes Read, ReadAt, Write and Sync through the injector's
// fault plan.
type faultFile struct {
	in *Injector
	f  File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if flt := f.in.hit(OpRead, f.f.Name()); flt != nil {
		return 0, &os.PathError{Op: "read", Path: f.f.Name(), Err: flt.Err}
	}
	return f.f.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if flt := f.in.hit(OpRead, f.f.Name()); flt != nil {
		return 0, &os.PathError{Op: "read", Path: f.f.Name(), Err: flt.Err}
	}
	return f.f.ReadAt(p, off)
}

func (f *faultFile) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }
func (f *faultFile) Close() error                              { return f.f.Close() }
func (f *faultFile) Name() string                              { return f.f.Name() }
func (f *faultFile) Truncate(size int64) error                 { return f.f.Truncate(size) }

func (f *faultFile) Write(p []byte) (int, error) {
	if flt := f.in.hit(OpWrite, f.f.Name()); flt != nil {
		n := flt.ShortWrite
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			// The failing call really writes its prefix: that is what a
			// disk filling up mid-write leaves behind.
			if wn, werr := f.f.Write(p[:n]); werr != nil {
				return wn, werr
			}
		}
		return n, &os.PathError{Op: "write", Path: f.f.Name(), Err: flt.Err}
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	if flt := f.in.hit(OpSync, f.f.Name()); flt != nil {
		return &os.PathError{Op: "sync", Path: f.f.Name(), Err: flt.Err}
	}
	return f.f.Sync()
}
