package store

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sitm/internal/core"
	"sitm/internal/wal"
)

// Crash-recovery property tests: build a durable store put by put while
// recording the WAL high-water mark after each put, then simulate a crash
// by truncating the WAL at arbitrary byte offsets in a copy of the
// directory and reopening. The recovered store must be observably
// identical (WriteJSON bytes and query results) to a fresh in-memory
// store fed exactly the puts whose frames survived the cut — no more, no
// less, regardless of whether the cut lands on a frame boundary or tears
// a frame in half.

// copyTree clones a durable directory so each crash probe mutates a
// private copy.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// walSize reads the logical size of the store's current log (including
// buffered bytes; Close flushes them, so after Close this is the file
// size).
func walSize(s *Store) int64 {
	d := s.dur
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.Size()
}

// frameEnds returns the offset just past each frame of the log at path,
// and each frame's record type.
func frameEnds(t *testing.T, path string) (ends []int64, types []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		types = append(types, data[off+8])
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, int64(off))
	}
	return ends, types
}

// seedDictsFromWAL replays the dictionary deltas of a probe's (possibly
// truncated) log into ref's dictionaries, exactly as recovery will.
// Symbols whose deltas survived a crash stay interned even when every row
// referencing them was torn away — that superset is part of the crash
// contract, so the oracle must carry the same alphabet for Summarize to
// agree.
func seedDictsFromWAL(t *testing.T, ref *Store, path string) {
	t.Helper()
	dicts := ref.dictKinds()
	lg, err := wal.Open(path, func(typ byte, payload []byte) error {
		if typ != recDict {
			return nil
		}
		return applyDictDelta(dicts, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTruncatedRowWAL cuts the store's one log at the end
// of, and inside, every row record; TestCrashRecoveryTruncatedDictWAL does
// the same for every dictionary-delta record. Between them every frame
// boundary and a mid-frame offset of every frame is cut.
func TestCrashRecoveryTruncatedRowWAL(t *testing.T) {
	crashRecoverWALMatrix(t, recRow)
}

func TestCrashRecoveryTruncatedDictWAL(t *testing.T) {
	crashRecoverWALMatrix(t, recDict)
}

func crashRecoverWALMatrix(t *testing.T, typ byte) {
	for _, shards := range []int{1, 2, 8} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d,procs=%d", shards, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				crashRecoverWAL(t, shards, int64(100*shards+procs), typ)
			})
		}
	}
}

// crashRecoverWAL cuts the store's one log at the end of, and at a
// mid-frame offset inside, every record of type typ — for dictionary
// deltas that includes the cut between a row's deltas and the row. Every
// third put interns a fresh moving object and a fresh cell, so deltas
// keep arriving. A put's row is its batch's last record, so the puts that
// survive a cut are exactly those whose after-put log size fits under it:
// a prefix of the puts, since every shard's rows share the one ordered
// file.
func crashRecoverWAL(t *testing.T, shards int, seed int64, typ byte) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	var trajs []core.Trajectory
	for i, tr := range randomCorpusTrajs(rng, 24) {
		if i%2 == 0 {
			trajs = append(trajs, mkTraj(t, fmt.Sprintf("cm%03d", i), "A", fmt.Sprintf("cc%03d", i)))
		}
		trajs = append(trajs, tr)
	}

	s := mustOpen(t, dir, Options{Shards: shards})
	// sizes[i] is the log size after the first i puts; index 0 is the
	// pre-put baseline. Put i survives a cut at c iff sizes[i+1] <= c.
	sizes := []int64{walSize(s)}
	for _, tr := range trajs {
		s.Put(tr)
		sizes = append(sizes, walSize(s))
	}
	mustClose(t, s)

	ends, types := frameEnds(t, walPath(dir, 1))
	cuts := []int64{0}
	prev := int64(0)
	for k, end := range ends {
		if types[k] == typ {
			cuts = append(cuts, prev+1+rng.Int63n(end-prev-1), end)
		}
		prev = end
	}
	if len(cuts) == 1 {
		t.Fatalf("the log holds no record of type %d", typ)
	}
	if n := len(ends); n <= len(trajs) || ends[n-1] != sizes[len(sizes)-1] {
		t.Fatalf("the log holds %d frames ending at %d; want more than the %d puts' rows, ending at %d", n, ends[n-1], len(trajs), sizes[len(sizes)-1])
	}
	for _, cut := range cuts {
		probe := copyTree(t, dir)
		if err := os.Truncate(walPath(probe, 1), cut); err != nil {
			t.Fatal(err)
		}
		ref := NewSharded(1)
		seedDictsFromWAL(t, ref, walPath(probe, 1))
		for i, tr := range trajs {
			if sizes[i+1] > cut {
				break // the first torn row; nothing after it survives
			}
			ref.Put(tr)
		}
		got := mustOpen(t, probe, Options{})
		if gotJSON, want := storeJSON(t, got), storeJSON(t, ref); gotJSON != want {
			t.Fatalf("shards=%d cut=%d: recovered store diverged from surviving-prefix oracle", shards, cut)
		}
		compareStores(t, ref, got, rng)
		mustClose(t, got)
	}
}

// TestCrashRecoveryCheckpointPlusTornTail crashes a store between and
// inside its checkpoints. Between: after each of three checkpoints, the
// generation's WAL tail is cut at frame boundaries and mid-frame, and
// recovery must load every checkpointed row from the segment generations
// committed so far, then splice in exactly the surviving tail rows.
// Inside: a checkpoint that crashed before its manifest commit leaves a
// torn segment of an unlisted generation, which recovery must ignore; a
// torn committed segment, by contrast, must fail the open and name it.
func TestCrashRecoveryCheckpointPlusTornTail(t *testing.T) {
	const rounds = 3
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(300 + shards)))
			pre := make([][]core.Trajectory, rounds)
			post := make([][]core.Trajectory, rounds)
			s := mustOpen(t, dir, Options{Shards: shards})
			for r := range rounds {
				pre[r] = randomCorpusTrajs(rng, 20)
				post[r] = randomCorpusTrajs(rng, 12)
				s.PutBatch(pre[r])
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				sizes := []int64{walSize(s)}
				for _, tr := range post[r] {
					s.Put(tr)
					sizes = append(sizes, walSize(s))
				}
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				snap := copyTree(t, dir)
				walGen := uint64(r + 2) // the WAL generation checkpoint r+1 rotated to

				// oracle replays the same calls in the same order (same
				// interning), with only the surviving tail puts of round r.
				oracle := func(probe string, survives func(i int) bool) *Store {
					ref := NewSharded(1)
					for j := 0; j < r; j++ {
						ref.PutBatch(pre[j])
						for _, tr := range post[j] {
							ref.Put(tr)
						}
					}
					ref.PutBatch(pre[r])
					seedDictsFromWAL(t, ref, walPath(probe, walGen))
					for i, tr := range post[r] {
						if survives(i) {
							ref.Put(tr)
						}
					}
					return ref
				}
				final := sizes[len(sizes)-1]
				// Frame boundaries (between rows) and arbitrary offsets
				// (inside a frame).
				cuts := []int64{0, final, sizes[rng.Intn(len(sizes))]}
				for i := 0; i < 2*shards; i++ {
					cuts = append(cuts, rng.Int63n(final+1))
				}
				for _, cut := range cuts {
					probe := copyTree(t, snap)
					if err := os.Truncate(walPath(probe, walGen), cut); err != nil {
						t.Fatal(err)
					}
					ref := oracle(probe, func(i int) bool { return sizes[i+1] <= cut })
					got := mustOpen(t, probe, Options{})
					if gotJSON, want := storeJSON(t, got), storeJSON(t, ref); gotJSON != want {
						t.Fatalf("shards=%d round=%d cut=%d: checkpoint+tail recovery diverged", shards, r, cut)
					}
					compareStores(t, ref, got, rng)
					mustClose(t, got)
				}

				// Inside the next checkpoint: its dictionary delta and a torn
				// segment landed, its manifest commit did not.
				probe := copyTree(t, snap)
				img, err := os.ReadFile(segPath(probe, uint64(r+1), 0))
				if err != nil {
					t.Fatal(err)
				}
				dictImg, err := os.ReadFile(segDictPath(probe, uint64(r+1)))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segDictPath(probe, uint64(r+2)), dictImg, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segPath(probe, uint64(r+2), 0), img[:len(img)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				ref := oracle(probe, func(int) bool { return true })
				got := mustOpen(t, probe, Options{})
				if gotJSON, want := storeJSON(t, got), storeJSON(t, ref); gotJSON != want {
					t.Fatalf("shards=%d round=%d: recovery over an uncommitted torn segment diverged", shards, r)
				}
				mustClose(t, got)

				// A torn committed segment (the first shard's that holds a
				// block): at its header's end, between blocks, and inside its
				// first block.
				for g := 0; g < shards; g++ {
					path := segPath(snap, uint64(r+1), g)
					img, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					offs := segBlockOffsets(t, img)
					if len(offs) < 2 {
						continue
					}
					for _, cut := range []int{offs[0], (offs[0] + offs[1]) / 2} {
						probe := copyTree(t, snap)
						path := segPath(probe, uint64(r+1), g)
						if err := os.Truncate(path, int64(cut)); err != nil {
							t.Fatal(err)
						}
						for _, ro := range []bool{true, false} {
							if _, err := Open(probe, Options{ReadOnly: ro}); err == nil || !strings.Contains(err.Error(), path) {
								t.Fatalf("shards=%d round=%d cut=%d read-only=%v: open over a torn committed segment: %v", shards, r, cut, ro, err)
							}
						}
					}
					break
				}
			}
			mustClose(t, s)
		})
	}
}
