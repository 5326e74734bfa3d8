package store

// E9 (DESIGN.md §4): durable persistence vs the JSON file it replaces.
// Two axes, both measured on the e7 synthetic corpus:
//
//   - Cold open: recovering a checkpointed durable directory (decode
//     segment columns + dict pages, replay an empty WAL tail) vs parsing
//     the equivalent JSON document and re-interning every string through
//     PutBatch.
//   - Durable ingest: streaming chunks into a durable store with a Sync
//     per chunk (WAL append + fsync) vs the only durability discipline the
//     JSON path offers — rewrite and fsync the whole document after every
//     chunk.
//
// TestE9DurableBeatsJSON enforces the acceptance floors in tier-1, as
// counts: heap allocations per cold open, and bytes written per chunk.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"sitm/internal/core"
	"sitm/internal/faultfs"
)

const (
	e9Trajs     = 4000
	e9ChunkSize = 250
	// e9Shards fixes the durable stores' shard count, so the floors'
	// counts do not depend on the machine's CPU count.
	e9Shards = 4
)

// e9Dir builds (once per binary run) a checkpointed durable directory
// holding the e9 corpus, and returns its path.
var e9DirCache string

func e9Dir(tb testing.TB) string {
	tb.Helper()
	if e9DirCache == "" {
		dir, err := os.MkdirTemp("", "sitm-e9-*")
		if err != nil {
			tb.Fatal(err)
		}
		s, err := Open(dir, Options{Shards: e9Shards})
		if err != nil {
			tb.Fatal(err)
		}
		s.PutBatch(e7Trajectories(tb)[:e9Trajs])
		if err := s.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
		e9DirCache = dir
	}
	return e9DirCache
}

// BenchmarkE9ColdOpenDurable (E9 after): recover the checkpointed store
// from segment columns and dict pages.
func BenchmarkE9ColdOpenDurable(b *testing.B) {
	dir := e9Dir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != e9Trajs {
			b.Fatal("short recovery")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ColdOpenJSON (E9 before): parse the equivalent JSON document
// and re-intern everything through PutBatch.
func BenchmarkE9ColdOpenJSON(b *testing.B) {
	data := e7JSON(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if err := s.ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if s.Len() != e9Trajs {
			b.Fatal("short load")
		}
	}
}

// writeCounter is the real filesystem, counting the bytes written through
// the files it opens.
type writeCounter struct {
	faultfs.FS
	n atomic.Int64
}

type countedFile struct {
	faultfs.File
	n *atomic.Int64
}

func (f countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (c *writeCounter) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countedFile{f, &c.n}, nil
}

func (c *writeCounter) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countedFile{f, &c.n}, nil
}

// e9IngestDurable streams the corpus into a fresh durable store in chunks,
// syncing after every chunk, and returns the bytes the store wrote.
func e9IngestDurable(tb testing.TB, dir string, trajs []core.Trajectory) int64 {
	tb.Helper()
	fsys := &writeCounter{FS: faultfs.OS}
	s, err := Open(dir, Options{Shards: e9Shards, FS: fsys})
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < len(trajs); lo += e9ChunkSize {
		hi := min(lo+e9ChunkSize, len(trajs))
		s.PutBatch(trajs[lo:hi])
		if err := s.Sync(); err != nil {
			tb.Fatal(err)
		}
	}
	if s.Len() != len(trajs) {
		tb.Fatal("short ingest")
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return fsys.n.Load()
}

// e9IngestJSONRewrite streams the corpus into an in-memory store, making
// each chunk durable the only way the JSON path can: rewrite the whole
// document and fsync it. It returns the bytes written over all chunks.
func e9IngestJSONRewrite(tb testing.TB, path string, trajs []core.Trajectory) int64 {
	tb.Helper()
	s := New()
	var written int64
	for lo := 0; lo < len(trajs); lo += e9ChunkSize {
		hi := min(lo+e9ChunkSize, len(trajs))
		s.PutBatch(trajs[lo:hi])
		f, err := os.Create(path)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.WriteJSON(f); err != nil {
			tb.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			tb.Fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			tb.Fatal(err)
		}
		written += info.Size()
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	if s.Len() != len(trajs) {
		tb.Fatal("short ingest")
	}
	return written
}

// BenchmarkE9DurableIngest (E9 after): chunked PutBatch + WAL fsync.
func BenchmarkE9DurableIngest(b *testing.B) {
	trajs := e7Trajectories(b)[:e9Trajs]
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e9IngestDurable(b, filepath.Join(root, fmt.Sprintf("run%d", i)), trajs)
	}
}

// BenchmarkE9JSONRewriteIngest (E9 before): chunked PutBatch + full
// document rewrite and fsync per chunk.
func BenchmarkE9JSONRewriteIngest(b *testing.B) {
	trajs := e7Trajectories(b)[:e9Trajs]
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e9IngestJSONRewrite(b, filepath.Join(root, fmt.Sprintf("run%d.json", i)), trajs)
	}
}

// E9 floors, about half and a third of the ratios measured on the e9
// corpus (4 000 trajectories, 4 shards, 16 chunks): a cold open makes
// 14.8× fewer heap allocations than the JSON load, and durable ingest
// writes 39.1× fewer bytes per chunk than rewriting the document.
const (
	e9OpenAllocFloor  = 7
	e9IngestByteFloor = 13
)

// TestE9DurableBeatsJSON enforces the E9 acceptance floors in tier-1 by
// counting, so the verdict does not depend on the machine's speed:
// cold-opening the durable directory must make ≥e9OpenAllocFloor× fewer
// heap allocations than the JSON parse-and-re-intern load (decoding
// columns and dictionary pages instead of re-parsing and re-interning
// every string), and chunked durable ingest must write
// ≥e9IngestByteFloor× fewer bytes per chunk than the
// rewrite-the-document-per-chunk JSON discipline (appending each chunk to
// the WAL instead of rewriting everything stored so far). It also
// cross-checks that both paths materialize the same observable store.
func TestE9DurableBeatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E9 workload")
	}
	trajs := e7Trajectories(t)[:e9Trajs]
	dir := e9Dir(t)
	data := e7JSON(t)

	// Same observable state on both load paths.
	sDur, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sJSON := New()
	if err := sJSON.ReadJSON(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var bufDur, bufJSON bytes.Buffer
	if err := sDur.WriteJSON(&bufDur); err != nil {
		t.Fatal(err)
	}
	if err := sJSON.WriteJSON(&bufJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufDur.Bytes(), bufJSON.Bytes()) {
		t.Fatal("durable recovery and JSON load materialize different stores")
	}
	if err := sDur.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold open: heap allocations per open.
	openDurable := testing.AllocsPerRun(2, func() {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != e9Trajs {
			t.Fatal("short recovery")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	openJSON := testing.AllocsPerRun(2, func() {
		s := New()
		if err := s.ReadJSON(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if s.Len() != e9Trajs {
			t.Fatal("short load")
		}
	})
	if openDurable*e9OpenAllocFloor > openJSON {
		t.Fatalf("durable cold open allocates %.0f times, not ≥%dx fewer than the JSON load's %.0f (%.1fx)",
			openDurable, e9OpenAllocFloor, openJSON, openJSON/openDurable)
	}
	t.Logf("E9 cold open: JSON %.0f allocations, durable %.0f (%.1fx)", openJSON, openDurable, openJSON/openDurable)

	// Chunked ingest: bytes written per chunk.
	root := t.TempDir()
	chunks := int64((len(trajs) + e9ChunkSize - 1) / e9ChunkSize)
	ingestDurable := e9IngestDurable(t, filepath.Join(root, "durable"), trajs) / chunks
	ingestJSON := e9IngestJSONRewrite(t, filepath.Join(root, "rewrite.json"), trajs) / chunks
	if ingestDurable*e9IngestByteFloor > ingestJSON {
		t.Fatalf("durable ingest writes %d bytes per chunk, not ≥%dx fewer than the JSON rewrite's %d (%.1fx)",
			ingestDurable, e9IngestByteFloor, ingestJSON, float64(ingestJSON)/float64(ingestDurable))
	}
	t.Logf("E9 ingest: JSON rewrite %d bytes per chunk, durable %d (%.1fx)", ingestJSON, ingestDurable, float64(ingestJSON)/float64(ingestDurable))
}
