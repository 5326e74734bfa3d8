package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// dirBytes snapshots every file under root as path → contents.
func dirBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// seedReadOnlyDir builds a durable dir with a committed segment
// generation, a live WAL tail on top of it, and a hand-torn WAL tail —
// the three states a read-only open must load (and must not repair).
func seedReadOnlyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2})
	s.Put(mkTraj(t, "mo-1", "a", "b"))
	s.Put(mkTraj(t, "mo-2", "b", "c"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(mkTraj(t, "mo-3", "c", "d"))
	mustClose(t, s)

	// Tear the WAL tail by hand: read-only recovery must stop at the last
	// intact frame without truncating the file.
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		p := filepath.Join(dir, "wal", e.Name())
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x07, 0x00}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dir
}

func TestReadOnlyOpenLeavesDirByteIdentical(t *testing.T) {
	dir := seedReadOnlyDir(t)
	before := dirBytes(t, dir)

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open: %v", err)
	}
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false on read-only store")
	}
	// Exercise reads, sync and close — none may touch the directory.
	if got := len(ro.All()); got != 3 {
		t.Fatalf("read-only store holds %d trajectories, want 3", got)
	}
	if _, err := ro.Select(Cell("a")); err != nil {
		t.Fatal(err)
	}
	if err := ro.Sync(); err != nil {
		t.Fatalf("Sync on read-only store: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("Close on read-only store: %v", err)
	}

	after := dirBytes(t, dir)
	if len(before) != len(after) {
		t.Fatalf("file set changed: %d files before, %d after", len(before), len(after))
	}
	for path, b := range before {
		if after[path] != b {
			t.Fatalf("file %s changed across read-only open", path)
		}
	}
}

func TestReadOnlyOpenSeesWhatRecoveryWouldSee(t *testing.T) {
	dir := seedReadOnlyDir(t)
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// A read-write open of a copy is the recovery oracle: same segments,
	// same WAL tails, same torn-tail handling.
	rw := mustOpen(t, copyTree(t, dir), Options{})
	if got, want := storeJSON(t, ro), storeJSON(t, rw); got != want {
		t.Fatalf("read-only state differs from recovery oracle:\n%s\nvs\n%s", got, want)
	}
	mustClose(t, rw)
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	dir := seedReadOnlyDir(t)
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()

	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrReadOnly) {
				t.Fatalf("Put panicked with %v, want ErrReadOnly", r)
			}
		}()
		ro.Put(mkTraj(t, "mo-x", "a"))
		t.Fatal("Put on read-only store did not panic")
	}()

	if err := ro.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint = %v, want ErrReadOnly", err)
	}
}

func TestReadOnlyOpenRequiresManifest(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of an empty dir should error, not bootstrap")
	}
}

func TestReadOnlyShardMismatch(t *testing.T) {
	dir := seedReadOnlyDir(t)
	if _, err := Open(dir, Options{ReadOnly: true, Shards: 5}); err == nil {
		t.Fatal("conflicting shard count should error")
	}
	s, err := Open(dir, Options{ReadOnly: true, Shards: 2})
	if err != nil {
		t.Fatalf("matching shard count should open: %v", err)
	}
	s.Close()
}
