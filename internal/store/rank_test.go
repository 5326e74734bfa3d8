package store

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"sitm/internal/core"
)

// rankNames are MO names whose symbol order differs from their id order
// and from any case- or rune-aware order: upper case before lower case,
// prefixes, NUL, multi-byte runes, a combining accent and invalid UTF-8.
var rankNames = []string{
	"zed", "Zed", "mo", "mo-1", "mo1", "mo\x00", "éa", "Éa", "éa", "ÿ",
	"Ā", "日本", "~", "\xff\xfe", "a", "B", "mo10", "mo2",
}

// renameMOs returns trajs with each MO replaced by a name drawn from pool.
func renameMOs(rng *rand.Rand, trajs []core.Trajectory, pool []string) []core.Trajectory {
	out := slices.Clone(trajs)
	for i := range out {
		out[i].MO = pool[rng.Intn(len(pool))]
	}
	return out
}

// rankBuilds returns how many times s has built its MO rank.
func rankBuilds(s *Store) int {
	s.moRank.mu.Lock()
	defer s.moRank.mu.Unlock()
	return s.moRank.builds
}

// TestSelectMOsRankOrderMatchesStringSort: SelectMOs sorts by the MO
// dictionary's rank, yet answers exactly the string-sorted distinct MOs of
// the oracle's matches: at 1, 2 and 8 shards; in memory, in a durable
// writer that checkpoints between batches, and in a store reopened from
// those checkpoints; and for MOs interned after the rank was built, which
// the rank does not cover until the dictionary doubles.
func TestSelectMOsRankOrderMatchesStringSort(t *testing.T) {
	rt := queryModel(t)
	for _, shards := range []int{1, 2, 8} {
		for _, placement := range []string{"memory", "checkpointed", "reopened"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, placement), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31 * shards)))
				dir := t.TempDir()
				var s *Store
				if placement == "memory" {
					s = NewSharded(shards)
				} else {
					s = mustOpen(t, dir, Options{Shards: shards})
				}
				s.AttachRegions(rt)
				// Three batches: the tricky names, then a few new names
				// (too few to double the dictionary, so they stay outside
				// the rank), then twice as many more (a rebuild).
				fresh := func(prefix string, n int) []string {
					out := make([]string, n)
					for i := range out {
						out[i] = fmt.Sprintf("%s%03d", prefix, n-i)
					}
					return out
				}
				pools := [][]string{rankNames, append(fresh("Mid", 5), rankNames...), fresh("late-é", 60)}
				var all []core.Trajectory
				sawUnranked := false
				for b, pool := range pools {
					batch := renameMOs(rng, randomCorpusTrajs(rng, 80), pool)
					s.PutBatch(batch)
					all = append(all, batch...)
					switch {
					case placement == "checkpointed":
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					case placement == "reopened" && b == 0:
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						mustClose(t, s)
						s = mustOpen(t, dir, Options{})
						s.AttachRegions(rt)
					}
					for k := 0; k < 40; k++ {
						q := randomQuery(rng, 2)
						if k == 0 {
							q = TimeOverlap(day.Add(-time.Hour), day.Add(1000*time.Hour))
						}
						want := oracleSelectMOs(all, q, rt)
						got, err := s.SelectMOs(q)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("batch %d: SelectMOs(%#v) = %q, want %q", b, q, got, want)
						}
						if !sort.StringsAreSorted(got) {
							t.Fatalf("batch %d: SelectMOs(%#v) = %q is not string-sorted", b, q, got)
						}
						if r := s.moRank.cur.Load(); r != nil && len(r.order) < s.mos.Len() {
							sawUnranked = true
						}
					}
				}
				if placement != "memory" {
					mustClose(t, s)
				}
				if !sawUnranked {
					t.Fatal("no query ran with MOs interned after the rank was built")
				}
			})
		}
	}
}

// TestMORankBuildsLogarithmically: interning n MOs one at a time, with a
// SelectMOs after each, builds the rank O(log n) times — once per
// doubling of the dictionary, not once per new dictionary snapshot.
func TestMORankBuildsLogarithmically(t *testing.T) {
	const n = 1000
	s := NewSharded(2)
	for i := 0; i < n; i++ {
		mo := fmt.Sprintf("mo%04d", n-i) // each new MO sorts first
		s.Put(traj(t, mo, i, "A", "B"))
		got, err := s.SelectMOs(Cell("A"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != i+1 || got[0] != mo || !sort.StringsAreSorted(got) {
			t.Fatalf("after %d MOs: SelectMOs = %d MOs starting %q", i+1, len(got), got[0])
		}
	}
	// Builds at dictionary sizes 1, 2, 4, …, 512.
	if got, max := rankBuilds(s), bits.Len(n); got > max {
		t.Fatalf("%d MOs interned one at a time built the rank %d times, want at most %d", n, got, max)
	}
	if s.Len() != n {
		t.Fatalf("store holds %d rows, want %d", s.Len(), n)
	}
}

// TestMORankBuildsRaceWithInterning: readers build and use the rank while
// writers intern new MOs in PutBatch. Run under -race (CI does, at 1, 2
// and 8 shards) it checks the rank's publication; its assertions check
// every reply is string-sorted and distinct and holds every MO stored
// before the query began.
func TestMORankBuildsRaceWithInterning(t *testing.T) {
	const writers, readers, batches = 3, 4, 40
	s := NewSharded(zoneTestShards())
	s.PutBatch([]core.Trajectory{traj(t, "seed", 0, "A")})
	var wg sync.WaitGroup
	var mu sync.Mutex
	stored := []string{"seed"}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]core.Trajectory, 1+b%4)
				names := make([]string, len(batch))
				for k := range batch {
					names[k] = fmt.Sprintf("%c-w%d-%03d-%d", 'z'-b%26, w, b, k)
					batch[k] = traj(t, names[k], b*10+k, "A", "B")
				}
				s.PutBatch(batch)
				mu.Lock()
				stored = append(stored, names...)
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				mu.Lock()
				before := slices.Clone(stored)
				mu.Unlock()
				got, err := s.SelectMOs(Cell("A"))
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(got); j++ {
					if got[j-1] >= got[j] {
						t.Errorf("reply not strictly string-sorted at %d: %q, %q", j, got[j-1], got[j])
						return
					}
				}
				for _, mo := range before {
					if _, ok := slices.BinarySearch(got, mo); !ok {
						t.Errorf("reply of %d MOs lacks %q, stored before the query", len(got), mo)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.SelectMOs(Cell("A"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(stored)
	if !slices.Equal(got, stored) {
		t.Fatalf("final SelectMOs = %d MOs, want the %d stored", len(got), len(stored))
	}
}
