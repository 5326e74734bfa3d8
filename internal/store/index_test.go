package store

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sitm/internal/core"
)

// randomStore builds a store of n single-or-multi-interval trajectories
// drawn from the rng, returning the store and its raw trajectories for
// reference scans.
func randomStore(rng *rand.Rand, n int) (*Store, []core.Trajectory) {
	s := New()
	cells := []string{"A", "B", "C", "D", "E"}
	var all []core.Trajectory
	for i := 0; i < n; i++ {
		mo := fmt.Sprintf("mo%02d", rng.Intn(10))
		var tr core.Trace
		t := day.Add(time.Duration(rng.Intn(5000)) * time.Minute)
		for k := 0; k < 1+rng.Intn(4); k++ {
			d := time.Duration(rng.Intn(90)+1) * time.Minute
			tr = append(tr, core.PresenceInterval{
				Cell:  cells[rng.Intn(len(cells))],
				Start: t,
				End:   t.Add(d),
			})
			t = t.Add(d + time.Duration(rng.Intn(20))*time.Minute)
		}
		traj, err := core.NewTrajectory(mo, tr, core.NewAnnotations("k", "v"))
		if err != nil {
			panic(err)
		}
		s.Put(traj)
		all = append(all, traj)
	}
	return s, all
}

// linearOverlapping is the pre-index reference implementation.
func linearOverlapping(trajs []core.Trajectory, from, to time.Time) []core.Trajectory {
	var out []core.Trajectory
	for _, t := range trajs {
		if !t.Start().After(to) && !t.End().Before(from) {
			out = append(out, t)
		}
	}
	return out
}

// linearInCellDuring is the pre-index reference implementation.
func linearInCellDuring(trajs []core.Trajectory, cell string, from, to time.Time) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range trajs {
		if seen[t.MO] {
			continue
		}
		for _, p := range t.Trace {
			if p.Cell == cell && !p.Start.After(to) && !p.End.Before(from) {
				seen[t.MO] = true
				out = append(out, t.MO)
				break
			}
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestQuickOverlappingMatchesLinearScan(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		s, all := randomStore(rng, n)
		from := day.Add(time.Duration(rng.Intn(6000)) * time.Minute)
		to := from.Add(time.Duration(rng.Intn(600)) * time.Minute)
		got := s.Overlapping(from, to)
		want := linearOverlapping(all, from, to)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].MO != want[i].MO || !got[i].Start().Equal(want[i].Start()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickInCellDuringMatchesLinearScanMultiInterval(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		s, all := randomStore(rng, n)
		from := day.Add(time.Duration(rng.Intn(6000)) * time.Minute)
		to := from.Add(time.Duration(rng.Intn(600)) * time.Minute)
		cell := []string{"A", "B", "C", "D", "E"}[rng.Intn(5)]
		got := s.InCellDuring(cell, from, to)
		want := linearInCellDuring(all, cell, from, to)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOverlappingAfterIncrementalPuts(t *testing.T) {
	// The lazy index must absorb writes arriving between queries.
	s := New()
	s.Put(traj(t, "a", 0, "A"))
	if got := s.Overlapping(at(0), at(10)); len(got) != 1 {
		t.Fatalf("first query = %d", len(got))
	}
	s.Put(traj(t, "b", 5, "B"))
	if got := s.Overlapping(at(0), at(20)); len(got) != 2 {
		t.Fatalf("post-write query = %d", len(got))
	}
	if got := s.InCellDuring("B", at(5), at(15)); len(got) != 1 || got[0] != "b" {
		t.Fatalf("post-write InCellDuring = %v", got)
	}
}

func TestThroughSequenceIntersectsAllCells(t *testing.T) {
	s := New()
	// Many trajectories visit A; only one continues A→B→C.
	for i := 0; i < 20; i++ {
		s.Put(traj(t, fmt.Sprintf("only-a-%d", i), i*100, "A"))
	}
	s.Put(traj(t, "walker", 5000, "A", "B", "C"))
	s.Put(traj(t, "reverse", 6000, "C", "B", "A"))
	if got := s.ThroughSequence("A", "B", "C"); len(got) != 1 || got[0].MO != "walker" {
		t.Fatalf("A,B,C = %v", got)
	}
	// A sequence whose later cell nobody visits short-circuits to nothing.
	if got := s.ThroughSequence("A", "Z"); got != nil {
		t.Fatalf("A,Z = %v", got)
	}
	// Repeated cells in the run intersect idempotently.
	s.Put(traj(t, "backforth", 7000, "A", "B", "A"))
	if got := s.ThroughSequence("A", "B", "A"); len(got) != 1 || got[0].MO != "backforth" {
		t.Fatalf("A,B,A = %v", got)
	}
}

func TestGetByMO(t *testing.T) {
	s := fill(t)
	got, err := s.GetByMO("alice")
	if err != nil || len(got) != 2 {
		t.Fatalf("GetByMO(alice) = %d trajectories, err %v", len(got), err)
	}
	if _, err := s.GetByMO("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetByMO(ghost) err = %v, want ErrNotFound", err)
	}
}

func TestGetThroughCell(t *testing.T) {
	s := fill(t)
	got, err := s.GetThroughCell("E")
	if err != nil || len(got) != 2 {
		t.Fatalf("GetThroughCell(E) = %d trajectories, err %v", len(got), err)
	}
	if _, err := s.GetThroughCell("nowhere"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetThroughCell(nowhere) err = %v, want ErrNotFound", err)
	}
}

func TestReadDetectionsCSVHeaderValidation(t *testing.T) {
	// A headerless file must be rejected, not silently truncated.
	headerless := "a,E,2017-01-01T00:00:00Z,2017-01-01T00:05:00Z\n" +
		"b,S,2017-01-01T01:00:00Z,2017-01-01T01:05:00Z\n"
	if _, err := ReadDetectionsCSV(strings.NewReader(headerless)); err == nil {
		t.Fatal("headerless CSV must error")
	}
	// Wrong column names are rejected too.
	if _, err := ReadDetectionsCSV(strings.NewReader("id,zone,begin,finish\n")); err == nil {
		t.Fatal("wrong header must error")
	}
	// A header-only file is valid and empty.
	got, err := ReadDetectionsCSV(strings.NewReader("mo,cell,start,end\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("header-only: %v, %v", got, err)
	}
}

func TestConcurrentPutAndIndexedQueries(t *testing.T) {
	// Parallel Put / ByMO / Overlapping / InCellDuring must be race-clean
	// while writers extend the zone maps underneath the readers.
	s := fill(t)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				switch w % 4 {
				case 0:
					s.Put(traj(t, fmt.Sprintf("writer%d", w), j*50, "E", "P"))
				case 1:
					s.ByMO("alice")
				case 2:
					s.Overlapping(at(0), at(10000))
				default:
					s.InCellDuring("E", at(0), at(10000))
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 3+3*40 {
		t.Errorf("Len = %d after concurrent writes", s.Len())
	}
	// The final index state reflects every write.
	if got := s.Overlapping(at(0), at(1000000)); len(got) != s.Len() {
		t.Errorf("Overlapping sees %d of %d trajectories", len(got), s.Len())
	}
}
