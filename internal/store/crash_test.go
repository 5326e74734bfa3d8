package store

import (
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
// by truncating a WAL file at arbitrary byte offsets in a copy of the
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

// rowWALSize reads shard g's logical row-WAL size (including buffered
// bytes; Close flushes them, so after Close this is the file size).
func rowWALSize(s *Store, g int) int64 {
	rl := &s.dur.rows[g]
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.log.Size()
}

// dictWALSize reads the logical dict-WAL size.
func dictWALSize(s *Store) int64 {
	d := s.dur
	d.dictMu.Lock()
	defer d.dictMu.Unlock()
	return d.dictLog.Size()
}

// seedDictsFromWAL replays a probe's (possibly truncated) dict WAL into
// ref's dictionaries, exactly as recovery will. Symbols whose deltas
// survived a crash stay interned even when every row referencing them was
// torn away — that superset is part of the crash contract, so the oracle
// must carry the same alphabet for Summarize to agree.
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

func TestCrashRecoveryTruncatedRowWAL(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d,procs=%d", shards, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				crashRecoverRowWAL(t, shards, int64(100*shards+procs))
			})
		}
	}
}

// crashRecoverRowWAL cuts each shard's row WAL at assorted offsets. The
// dict WAL stays intact, so the surviving rows of the cut shard are
// exactly those whose frame lies within the cut; every other shard keeps
// all of its rows.
func crashRecoverRowWAL(t *testing.T, shards int, seed int64) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	trajs := randomCorpusTrajs(rng, 50)

	s := mustOpen(t, dir, Options{Shards: shards})
	// sizes[g][i] is shard g's WAL size after the first i puts; index 0 is
	// the pre-put baseline. Put i's frame survives a cut at c iff
	// sizes[g][i+1] <= c; the put was routed to g iff the size grew.
	sizes := make([][]int64, shards)
	for g := range sizes {
		sizes[g] = append(sizes[g], rowWALSize(s, g))
	}
	for _, tr := range trajs {
		s.Put(tr)
		for g := range sizes {
			sizes[g] = append(sizes[g], rowWALSize(s, g))
		}
	}
	mustClose(t, s)

	for g := 0; g < shards; g++ {
		final := sizes[g][len(sizes[g])-1]
		cuts := []int64{0, 1, final}
		for i := 0; i < 6; i++ {
			cuts = append(cuts, rng.Int63n(final+1))
		}
		for _, cut := range cuts {
			probe := copyTree(t, dir)
			if err := os.Truncate(walRowPath(probe, 1, g), cut); err != nil {
				t.Fatal(err)
			}
			ref := NewSharded(1)
			seedDictsFromWAL(t, ref, walDictPath(probe, 1))
			for i, tr := range trajs {
				routedHere := sizes[g][i+1] > sizes[g][i]
				if routedHere && sizes[g][i+1] > cut {
					continue // frame past the cut: must not survive
				}
				ref.Put(tr)
			}
			got := mustOpen(t, probe, Options{})
			if gotJSON, want := storeJSON(t, got), storeJSON(t, ref); gotJSON != want {
				t.Fatalf("shards=%d shard=%d cut=%d: recovered store diverged from surviving-prefix oracle", shards, g, cut)
			}
			compareStores(t, ref, got, rng)
			mustClose(t, got)
		}
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
				sizes := make([][]int64, shards)
				for g := range sizes {
					sizes[g] = append(sizes[g], rowWALSize(s, g))
				}
				for _, tr := range post[r] {
					s.Put(tr)
					for g := range sizes {
						sizes[g] = append(sizes[g], rowWALSize(s, g))
					}
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
					seedDictsFromWAL(t, ref, walDictPath(probe, walGen))
					for i, tr := range post[r] {
						if survives(i) {
							ref.Put(tr)
						}
					}
					return ref
				}
				for g := 0; g < shards; g++ {
					final := sizes[g][len(sizes[g])-1]
					// Frame boundaries (between rows) and arbitrary offsets
					// (inside a frame).
					cuts := []int64{0, final, sizes[g][rng.Intn(len(sizes[g]))]}
					for i := 0; i < 2; i++ {
						cuts = append(cuts, rng.Int63n(final+1))
					}
					for _, cut := range cuts {
						probe := copyTree(t, snap)
						if err := os.Truncate(walRowPath(probe, walGen, g), cut); err != nil {
							t.Fatal(err)
						}
						ref := oracle(probe, func(i int) bool {
							routedHere := sizes[g][i+1] > sizes[g][i]
							return !routedHere || sizes[g][i+1] <= cut
						})
						got := mustOpen(t, probe, Options{})
						if gotJSON, want := storeJSON(t, got), storeJSON(t, ref); gotJSON != want {
							t.Fatalf("shards=%d round=%d shard=%d cut=%d: checkpoint+tail recovery diverged", shards, r, g, cut)
						}
						compareStores(t, ref, got, rng)
						mustClose(t, got)
					}
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

func TestCrashRecoveryTruncatedDictWAL(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d,procs=%d", shards, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				crashRecoverDictWAL(t, shards, int64(200*shards+procs))
			})
		}
	}
}

// crashRecoverDictWAL cuts the shared dict WAL. Every put below interns a
// fresh moving object and a fresh cell, so a put's row is replayable iff
// every dict delta logged for it survived — which makes the after-put dict
// WAL size a strictly increasing watermark and the surviving puts exactly
// the prefix whose watermark fits under the cut. Rows past that prefix are
// intact in their row WALs but reference never-durable ids; recovery must
// treat them as a torn tail (errStaleRow → ErrStopReplay), not corruption.
func crashRecoverDictWAL(t *testing.T, shards int, seed int64) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))

	const n = 40
	trajs := make([]core.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		trajs = append(trajs, mkTraj(t, fmt.Sprintf("cm%03d", i), "A", fmt.Sprintf("cc%03d", i)))
	}

	s := mustOpen(t, dir, Options{Shards: shards})
	marks := make([]int64, 0, n) // dict WAL size after put i (strictly increasing)
	for _, tr := range trajs {
		s.Put(tr)
		marks = append(marks, dictWALSize(s))
	}
	mustClose(t, s)

	final := marks[len(marks)-1]
	cuts := []int64{0, 1, marks[0] - 1, marks[0], final}
	for i := 0; i < 6; i++ {
		cuts = append(cuts, rng.Int63n(final+1))
	}
	for _, cut := range cuts {
		probe := copyTree(t, dir)
		if err := os.Truncate(walDictPath(probe, 1), cut); err != nil {
			t.Fatal(err)
		}
		ref := NewSharded(1)
		seedDictsFromWAL(t, ref, walDictPath(probe, 1))
		for i, tr := range trajs {
			if marks[i] > cut {
				break // first put whose deltas were torn; nothing later survives
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
