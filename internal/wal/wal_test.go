package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// record is one replayed (type, payload) pair.
type record struct {
	typ     byte
	payload []byte
}

// replayAll opens path collecting every replayed record.
func replayAll(t *testing.T, path string) ([]record, *Log) {
	t.Helper()
	var got []record
	l, err := Open(path, func(typ byte, payload []byte) error {
		got = append(got, record{typ, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return got, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []record{
		{1, []byte("hello")},
		{2, nil},
		{1, bytes.Repeat([]byte{0xAB}, 70000)}, // spans multiple buffer flushes
		{7, []byte{0}},
	}
	for _, r := range want {
		if err := l.Append(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, path)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d mismatch: got (%d, %d bytes) want (%d, %d bytes)",
				i, got[i].typ, len(got[i].payload), want[i].typ, len(want[i].payload))
		}
	}
}

func TestSizeCountsBufferedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Size() != 0 {
		t.Fatalf("empty log Size = %d", l.Size())
	}
	if err := l.Append(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	want := int64(headerSize + 1 + 3)
	if l.Size() != want {
		t.Fatalf("Size = %d, want %d (before flush)", l.Size(), want)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Fatalf("on-disk size = %d, want %d after Sync", fi.Size(), want)
	}
}

// TestTornTailTruncated is the crash contract: truncating the file at any
// byte offset leaves, after reopen, exactly the records whose frames fit
// entirely within the prefix — and the file physically truncated to them.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	l, err := Open(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // ends[i] = file offset just past record i
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		if err := l.Append(byte(i%3), payload); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(data)); cut += 13 {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		var wantEnd int64
		for i, e := range ends {
			if e <= cut {
				wantN = i + 1
				wantEnd = e
			}
		}
		got, lg := replayAll(t, path)
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantN)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantEnd {
			t.Fatalf("cut=%d: file size after reopen = %d, want %d", cut, fi.Size(), wantEnd)
		}
	}
}

// TestCorruptMiddleStopsReplay flips a payload byte in an early record:
// the scan must stop there (checksum mismatch) and drop everything after.
func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(1, []byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(headerSize + 1 + 3)
	data[2*frame+headerSize+2] ^= 0xFF // corrupt record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, lg := replayAll(t, path)
	defer lg.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records after mid-file corruption, want 2", len(got))
	}
}

// TestAppendAfterRecoveryContinues reopens a torn log and keeps appending;
// a further reopen must see old survivors followed by the new records.
func TestAppendAfterRecoveryContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, l2 := replayAll(t, path)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	if err := l2.Append(9, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, l3 := replayAll(t, path)
	defer l3.Close()
	if len(got) != 3 || got[2].typ != 9 || string(got[2].payload) != "new" {
		t.Fatalf("after append-over-tear, got %v", got)
	}
}

// TestReplayErrorAbortsOpen: a replay error must fail Open outright
// rather than silently truncating.
func TestReplayErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, func(byte, []byte) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("Open succeeded despite replay error")
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path); err == nil {
		t.Fatal("Create over an existing file succeeded")
	}
}

// TestImpossibleLengthTreatedAsTear: a header claiming a body beyond
// MaxBody ends the scan instead of allocating it.
func TestImpossibleLengthTreatedAsTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, MaxBody+1)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = append(buf, bytes.Repeat([]byte{1}, 64)...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, l := replayAll(t, path)
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from garbage header, want 0", len(got))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("file not truncated: %d bytes", fi.Size())
	}
}
