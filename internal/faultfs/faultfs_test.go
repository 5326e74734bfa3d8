package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := OS.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := OS.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := OS.Rename(path, path+"2"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := OS.Stat(path + "2"); err != nil {
		t.Fatalf("Stat after rename: %v", err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(path + "2"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestInjectorFailNthSync(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Fault{Op: OpSync, After: 1, Times: 1, Err: syscall.EIO})

	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 should pass: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 2 should fail with EIO, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 should pass again (Times=1): %v", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestInjectorShortWriteENOSPC(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Fault{Op: OpWrite, Err: syscall.ENOSPC, ShortWrite: 3})

	path := filepath.Join(dir, "f")
	f, err := in.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write = %d, %v; want 3, ENOSPC", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "abc" {
		t.Fatalf("on-disk prefix = %q, want %q", got, "abc")
	}
}

func TestInjectorPathFilterAndRename(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Fault{Op: OpRename, Path: "manifest", Err: syscall.EIO})

	src := filepath.Join(dir, "manifest.tmp")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(src, filepath.Join(dir, "MANIFEST.json")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("matching rename should fail, got %v", err)
	}
	// The failed rename must not have moved the file.
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("source gone after failed rename: %v", err)
	}
	other := filepath.Join(dir, "other")
	if err := os.WriteFile(other, []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(other, other+"2"); err != nil {
		t.Fatalf("non-matching rename should pass: %v", err)
	}
}

func TestInjectorCreateAndReset(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Add(Fault{Op: OpCreate, Err: syscall.ENOSPC})

	if _, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("create should fail, got %v", err)
	}
	if _, err := in.CreateTemp(dir, "tmp-*"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("CreateTemp should fail, got %v", err)
	}
	// Plain opens are a different op class and pass through.
	if err := os.WriteFile(filepath.Join(dir, "g"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := in.OpenFile(filepath.Join(dir, "g"), os.O_RDONLY, 0); err != nil {
		t.Fatalf("plain open should pass: %v", err)
	} else {
		f.Close()
	}
	in.Reset()
	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("create after Reset should pass: %v", err)
	}
	f.Close()
}

func TestInjectorFailsReadsOnMatchingPath(t *testing.T) {
	dir := t.TempDir()
	seg, other := filepath.Join(dir, "1-0000.seg"), filepath.Join(dir, "other")
	for _, p := range []string{seg, other} {
		if err := os.WriteFile(p, []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in := NewInjector(nil)
	in.Add(Fault{Op: OpRead, Path: ".seg", Times: 2, Err: syscall.EIO})

	f, err := in.OpenFile(seg, os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open should pass (a read fault is not an open fault): %v", err)
	}
	defer f.Close()
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadAt should fail with EIO, got %v", err)
	}
	if _, err := in.ReadFile(seg); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadFile should fail with EIO, got %v", err)
	}
	if got, err := in.ReadFile(other); err != nil || string(got) != "payload" {
		t.Fatalf("non-matching ReadFile = %q, %v", got, err)
	}
	// Times: 2 is spent, so the fault has cleared.
	if n, err := f.ReadAt(buf, 2); err != nil || string(buf[:n]) != "ylo" {
		t.Fatalf("ReadAt after the fault cleared = %q, %v", buf[:n], err)
	}
	if n, err := f.Read(buf); err != nil || string(buf[:n]) != "pay" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}
