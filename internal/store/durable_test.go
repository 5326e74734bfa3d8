package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/faultfs"
)

// storeJSON renders a store through WriteJSON — the bit-equal oracle the
// durability tests compare against.
func storeJSON(t *testing.T, s *Store) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustClose(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDurableObservablyEquivalent is the durability correctness property:
// a durable store fed any schedule is observably identical to the
// in-memory single-shard engine — live, after a clean close-and-reopen
// (WAL-only recovery), after a checkpoint, and after reopening over
// segments + WAL tail. Swept across shard counts.
func TestDurableObservablyEquivalent(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				trajs := randomCorpusTrajs(rng, 40+rng.Intn(40))
				var chunks []int
				for c := 0; c < len(trajs); {
					n := 1 + rng.Intn(7)
					chunks = append(chunks, n)
					c += n
				}
				ref := NewSharded(1)
				applySchedule(ref, trajs, chunks)
				want := storeJSON(t, ref)

				dir := t.TempDir()
				s := mustOpen(t, dir, Options{Shards: shards})
				applySchedule(s, trajs, chunks)
				compareStores(t, ref, s, rand.New(rand.NewSource(seed^0x77)))
				mustClose(t, s)

				// Reopen: everything comes back from the WAL alone.
				s = mustOpen(t, dir, Options{})
				if got := storeJSON(t, s); got != want {
					t.Fatal("WAL-only reopen diverged from reference JSON")
				}
				compareStores(t, ref, s, rand.New(rand.NewSource(seed^0x78)))

				// Checkpoint, then half the corpus again on top.
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				more := randomCorpusTrajs(rng, 20)
				s.PutBatch(more)
				ref.PutBatch(more)
				want = storeJSON(t, ref)
				if got := storeJSON(t, s); got != want {
					t.Fatal("post-checkpoint writes diverged")
				}
				mustClose(t, s)

				// Reopen: segments + WAL tail.
				s = mustOpen(t, dir, Options{})
				if got := storeJSON(t, s); got != want {
					t.Fatal("segment+tail reopen diverged from reference JSON")
				}
				compareStores(t, ref, s, rand.New(rand.NewSource(seed^0x79)))
				mustClose(t, s)
			})
		}
	}
}

// TestDurableCheckpointLifecycle checks generation bookkeeping: WAL bytes
// accumulate, each checkpoint moves them into a new segment generation
// and resets the WAL, earlier generations stay on disk beside it, and
// exactly one WAL generation remains.
func TestDurableCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	s := mustOpen(t, dir, Options{Shards: 2})
	s.PutBatch(randomCorpusTrajs(rng, 30))

	st, ok := s.Durability()
	if !ok {
		t.Fatal("Durability() not ok on a durable store")
	}
	if st.Gen != 0 || st.Segments != 0 || st.WALBytes == 0 {
		t.Fatalf("before checkpoint: %+v", st)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Durability()
	if st.Gen != 1 || st.Segments != 2 || st.WALBytes != 0 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	s.PutBatch(randomCorpusTrajs(rng, 10))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Durability()
	if st.Gen != 2 || st.Segments != 4 {
		t.Fatalf("after second checkpoint: %+v", st)
	}
	mustClose(t, s)

	// Both generations: one dictionary delta and one segment per shard each.
	want := []string{
		"00000001-0000.seg", "00000001-0001.seg", "00000001.dict",
		"00000002-0000.seg", "00000002-0001.seg", "00000002.dict",
	}
	if got := dirNames(t, filepath.Join(dir, segDirName)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("seg dir has %v, want %v", got, want)
	}
	man, err := readManifest(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != manifestVersion || man.Gen != 2 || fmt.Sprint(man.Gens) != "[1 2]" {
		t.Fatalf("manifest %+v, want version %d listing generations [1 2]", man, manifestVersion)
	}
	// Exactly one WAL generation should remain.
	if got := dirNames(t, filepath.Join(dir, walDirName)); fmt.Sprint(got) != "[00000003-0000.row.wal 00000003-0001.row.wal 00000003.dict.wal]" {
		t.Fatalf("wal dir has %v, want exactly generation 3 (3 files)", got)
	}
}

// dirNames lists a directory's entry names in order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDurableInMemoryNoOps: Sync/Checkpoint/Close on the in-memory
// constructors are documented no-ops.
func TestDurableInMemoryNoOps(t *testing.T) {
	s := New()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Durability(); ok {
		t.Fatal("Durability() ok on an in-memory store")
	}
}

// TestDurableShardCountPinned: the directory's shard layout is
// authoritative — 0 adopts it, a conflicting count is refused.
func TestDurableShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 3})
	s.Put(mkTraj(t, "mo1", "A"))
	mustClose(t, s)

	s = mustOpen(t, dir, Options{})
	if len(s.shards) != 3 {
		t.Fatalf("adopted %d shards, want 3", len(s.shards))
	}
	mustClose(t, s)

	if _, err := Open(dir, Options{Shards: 5}); err == nil {
		t.Fatal("Open with a conflicting shard count succeeded")
	}
}

// mkTraj builds a minimal valid trajectory.
func mkTraj(t *testing.T, mo string, cells ...string) core.Trajectory {
	t.Helper()
	var tr core.Trace
	at := day
	for _, c := range cells {
		tr = append(tr, core.PresenceInterval{Cell: c, Start: at, End: at.Add(time.Minute)})
		at = at.Add(2 * time.Minute)
	}
	traj, err := core.NewTrajectory(mo, tr, core.NewAnnotations("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestDurableAutoCompact: crossing the WAL byte threshold triggers a
// background checkpoint without any explicit Checkpoint call.
func TestDurableAutoCompact(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	s := mustOpen(t, dir, Options{Shards: 2, AutoCompactBytes: 4 << 10})
	ref := NewSharded(1)
	for i := 0; i < 40; i++ {
		batch := randomCorpusTrajs(rng, 10)
		s.PutBatch(batch)
		ref.PutBatch(batch)
	}
	// The checkpoint runs on a background goroutine; give it a deadline to
	// land before closing (Close would refuse a checkpoint that only gets
	// scheduled after it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Durability()
		if !ok {
			t.Fatal("durable store reports no durability stats")
		}
		if st.Gen > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran despite WAL growth")
		}
		time.Sleep(time.Millisecond)
	}
	mustClose(t, s)

	man, err := readManifest(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Gen == 0 {
		t.Fatal("manifest lost the background checkpoint generation")
	}
	s = mustOpen(t, dir, Options{})
	if got, want := storeJSON(t, s), storeJSON(t, ref); got != want {
		t.Fatal("auto-compacted store diverged after reopen")
	}
	mustClose(t, s)
}

// TestDurableConcurrentWritersAndCheckpoints hammers Put/PutBatch from
// several goroutines while checkpoints run — each commit swapping the
// rows it wrote to blocks — and readers run CellDuring and
// full-trajectory Select plans that materialize those blocks, then proves
// the writer answers every plan like an in-memory model at quiescence,
// holds no trajectory value after a quiescent checkpoint, and that reopen
// sees every trajectory exactly once. (The race detector covers the memory
// model; CI runs this with -race across shard counts.)
func TestDurableConcurrentWritersAndCheckpoints(t *testing.T) {
	const writers, readers, perWriter = 4, 2, 40
	trajs := make([][]core.Trajectory, writers)
	model := NewSharded(1)
	for w := range trajs {
		for i := 0; i < perWriter; i++ {
			cells := [][]string{{"A", "B"}, {"B", "C", "A"}, {"C"}}[i%3]
			trajs[w] = append(trajs[w], traj(t, fmt.Sprintf("w%d-%d", w, i), (w*perWriter+i)*7, cells...))
		}
		model.PutBatch(trajs[w])
	}
	plans := []Query{
		CellDuring("A", at(0), at(400)),
		CellDuring("C", at(500), at(900)),
		Cell("B"),
		And(Cell("C"), TimeOverlap(at(200), at(800))),
		Through("A", "B"),
	}
	byMO := func(ts []core.Trajectory) string {
		slices.SortFunc(ts, func(a, b core.Trajectory) int { return strings.Compare(a.MO, b.MO) })
		return trajSig(ts)
	}

	withBlockRows(8, func() { // many blocks per segment: many to materialize
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Shards: shardCount()})
		var writing, reading sync.WaitGroup
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(w int) {
				defer writing.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for _, tr := range trajs[w] {
					if rng.Intn(2) == 0 {
						s.Put(tr)
					} else {
						s.PutBatch([]core.Trajectory{tr})
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			reading.Add(1)
			go func(r int) {
				defer reading.Done()
				seen := make([]int, len(plans)) // the store only grows
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					p := (r + k) % len(plans)
					got, err := s.Select(plans[p])
					if err != nil {
						t.Errorf("Select(%v): %v", plans[p], err)
						return
					}
					for _, tr := range got {
						if !strings.HasPrefix(tr.MO, "w") || len(tr.Trace) == 0 {
							t.Errorf("Select(%v) returned a malformed trajectory %v", plans[p], tr)
							return
						}
					}
					if len(got) < seen[p] {
						t.Errorf("Select(%v) shrank from %d to %d rows", plans[p], seen[p], len(got))
						return
					}
					seen[p] = len(got)
				}
			}(r)
		}
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		}
		writing.Wait()
		if err := s.Checkpoint(); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
		close(stop)
		reading.Wait()

		for i := range s.shards {
			if n := len(s.shards[i].trajs); n != 0 {
				t.Errorf("shard %d holds %d trajectory values after a quiescent checkpoint", i, n)
			}
		}
		for _, q := range plans {
			got, err := s.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := model.Select(q)
			if byMO(got) != byMO(want) {
				t.Errorf("Select(%v) at quiescence diverged from the model", q)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want := s.Len()
		mustClose(t, s)

		s = mustOpen(t, dir, Options{})
		defer mustClose(t, s)
		if s.Len() != want {
			t.Fatalf("reopen lost rows: %d vs %d", s.Len(), want)
		}
		seen := make(map[string]bool)
		for _, tr := range s.All() {
			if seen[tr.MO] {
				t.Fatalf("trajectory %s recovered twice", tr.MO)
			}
			seen[tr.MO] = true
		}
		if len(seen) != writers*perWriter {
			t.Fatalf("recovered %d distinct MOs, want %d", len(seen), writers*perWriter)
		}
	})
}

// shardCount resolves the -shards test flag like newTestStore does.
func shardCount() int { return *shardFlag }

// TestOpenRejectsCorruptSegment: a flipped byte inside a committed
// segment (or dict file) must fail Open outright — checksummed files are
// never half-loaded.
func TestOpenRejectsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	s := mustOpen(t, dir, Options{Shards: 1})
	s.PutBatch(randomCorpusTrajs(rng, 20))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)

	for _, path := range []string{segPath(dir, 1, 0), segDictPath(dir, 1)} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/2] ^= 0x40
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("Open succeeded over corrupt %s", filepath.Base(path))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Restored: opens clean again.
	s = mustOpen(t, dir, Options{})
	mustClose(t, s)
}

// TestOpenRejectsNegativeShardWAL: a row WAL named for a negative shard is
// an unrecognized file — writable and read-only opens report it by name
// instead of indexing the shard list with it.
func TestOpenRejectsNegativeShardWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2})
	s.Put(mkTraj(t, "mo-1", "a", "b"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	const name = "00000001--1.row.wal"
	if err := os.WriteFile(filepath.Join(dir, walDirName, name), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {ReadOnly: true}} {
		s, err := Open(dir, opts)
		if err == nil {
			s.Close()
			t.Fatalf("Open (read-only=%v) accepted %s", opts.ReadOnly, name)
		}
		if !strings.Contains(err.Error(), "unrecognized wal file "+name) {
			t.Fatalf("Open (read-only=%v): err = %v, want it to name %s", opts.ReadOnly, err, name)
		}
	}
}

// TestDurableReadJSONPersists: the JSON load path goes through the
// durable PutBatch hook, so a loaded file survives reopen byte-for-byte.
func TestDurableReadJSONPersists(t *testing.T) {
	ref := NewSharded(1)
	rng := rand.New(rand.NewSource(5))
	ref.PutBatch(randomCorpusTrajs(rng, 25))
	want := storeJSON(t, ref)

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 4})
	if err := s.ReadJSON(strings.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	s = mustOpen(t, dir, Options{})
	defer mustClose(t, s)
	if got := storeJSON(t, s); got != want {
		t.Fatal("durable ReadJSON round trip diverged")
	}
}

// TestDurableRegionsAttachAfterRecovery: region postings are not
// persisted; attaching a hierarchy to a recovered store rebuilds them
// (same contract as the in-memory store).
func TestDurableRegionsAttachAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2})
	s.Put(mkTraj(t, "mo1", "A", "B"))
	s.Put(mkTraj(t, "mo2", "E"))
	mustClose(t, s)

	s = mustOpen(t, dir, Options{})
	defer mustClose(t, s)
	s.AttachRegions(queryModel(t))
	got, err := s.SelectMOs(Region("Wing", "west"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[mo1]" {
		t.Fatalf("Region(west) after recovery = %v, want [mo1]", got)
	}
}
