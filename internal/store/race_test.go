package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sitm/internal/core"
)

// TestRaceStressWritersVsReaders is the streaming-engine torture test: N
// writer goroutines interleave Put and PutBatch while M readers hammer
// Overlapping, InCellDuring and ThroughSequence. Run under -race (CI does)
// it checks the locking discipline; its own assertions check the semantic
// contract regardless of scheduling:
//
//   - every trajectory stored before the readers started stays visible in
//     every wide-window query (writes never eclipse earlier data);
//   - results are internally consistent: Overlapping returns genuinely
//     overlapping trajectories in insertion order, InCellDuring returns
//     sorted unique MOs that truly visited the cell, ThroughSequence
//     returns trajectories whose deduplicated cell sequence contains the
//     run;
//   - wide-window counts never decrease (the store is append-only).
func TestRaceStressWritersVsReaders(t *testing.T) {
	const (
		writers       = 6
		readers       = 6
		opsPerWriter  = 40
		opsPerReader  = 60
		batchEvery    = 4 // every 4th writer op is a PutBatch of batchSize
		batchSize     = 5
		preloadTrajs  = 25
		sequenceCells = 3
	)
	s := newTestStore()
	var preloaded []core.Trajectory
	for i := 0; i < preloadTrajs; i++ {
		tr := traj(t, fmt.Sprintf("pre%03d", i), i*20, "E", "P", "S")
		preloaded = append(preloaded, tr)
		s.Put(tr)
	}
	wideFrom, wideTo := at(-1000000), at(1000000)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < opsPerWriter; j++ {
				if j%batchEvery == 0 {
					batch := make([]core.Trajectory, batchSize)
					for k := range batch {
						batch[k] = traj(t, fmt.Sprintf("w%d-b%d-%d", w, j, k),
							(w*1000+j*10+k)*7, "A", "B", "C")
					}
					s.PutBatch(batch)
				} else {
					s.Put(traj(t, fmt.Sprintf("w%d-s%d", w, j), (w*1000+j*10)*7, "E", "S"))
				}
			}
		}(w)
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastCount := 0
			for j := 0; j < opsPerReader; j++ {
				switch j % 3 {
				case 0:
					got := s.Overlapping(wideFrom, wideTo)
					if len(got) < preloadTrajs {
						errs <- fmt.Errorf("reader %d: wide window lost preloaded data: %d < %d",
							r, len(got), preloadTrajs)
						return
					}
					if len(got) < lastCount {
						errs <- fmt.Errorf("reader %d: count regressed %d → %d", r, lastCount, len(got))
						return
					}
					lastCount = len(got)
					for k := range got {
						if got[k].Start().After(wideTo) || got[k].End().Before(wideFrom) {
							errs <- fmt.Errorf("reader %d: non-overlapping result", r)
							return
						}
						if k > 0 && got[k-1].Start().After(got[k].Start()) &&
							got[k-1].MO == got[k].MO {
							// Insertion order within an MO implies time order
							// here (each MO is written once).
							errs <- fmt.Errorf("reader %d: order violation", r)
							return
						}
					}
				case 1:
					mos := s.InCellDuring("E", wideFrom, wideTo)
					for k := 1; k < len(mos); k++ {
						if mos[k-1] >= mos[k] {
							errs <- fmt.Errorf("reader %d: InCellDuring not sorted-unique: %q, %q",
								r, mos[k-1], mos[k])
							return
						}
					}
					seen := make(map[string]bool)
					for _, tr := range s.ThroughCell("E") {
						seen[tr.MO] = true
					}
					for _, mo := range mos {
						if !seen[mo] {
							errs <- fmt.Errorf("reader %d: MO %q in cell E without visiting it", r, mo)
							return
						}
					}
				default:
					got := s.ThroughSequence("E", "P", "S")
					if len(got) < preloadTrajs {
						errs <- fmt.Errorf("reader %d: sequence query lost preloaded data: %d", r, len(got))
						return
					}
					for _, tr := range got {
						if !containsStringRun(dedupStrings(tr.Trace.Cells()), []string{"E", "P", "S"}) {
							errs <- fmt.Errorf("reader %d: sequence result without the run", r)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Final state: every write landed and the indexes agree with a scan.
	wantLen := preloadTrajs + writers*(opsPerWriter/batchEvery*batchSize+(opsPerWriter-opsPerWriter/batchEvery))
	if s.Len() != wantLen {
		t.Fatalf("final Len = %d, want %d", s.Len(), wantLen)
	}
	if got := s.Overlapping(wideFrom, wideTo); len(got) != wantLen {
		t.Fatalf("final wide window sees %d of %d", len(got), wantLen)
	}
	// The preloaded trajectories are all still retrievable by MO.
	for i, tr := range preloaded {
		got, err := s.GetByMO(tr.MO)
		if err != nil || len(got) != 1 {
			t.Fatalf("preloaded %d: %v, %d", i, err, len(got))
		}
	}
}

// TestAttachRegionsRacesWithNewCells: rows that intern never-seen cells
// while AttachRegions rebuilds must neither crash the rebuild (its
// dictionary snapshot must cover every id of the shard it indexes) nor
// leave the postings short, duplicated or overwritten: once the writer and
// the attach are done, every shard's region postings equal those a fresh
// attach builds on the final store.
func TestAttachRegionsRacesWithNewCells(t *testing.T) {
	rt := queryModel(t)
	zones := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for round := 0; round < 200; round++ {
		s := newTestStore()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// A hierarchy zone plus a cell no row has used before.
				s.Put(traj(t, fmt.Sprintf("mo%d", i%17), i*10, zones[i%len(zones)], fmt.Sprintf("new%d", i)))
			}
		}()
		s.AttachRegions(rt)
		wg.Wait()
		got := regionPostingsOf(s)
		s.AttachRegions(rt)
		if want := regionPostingsOf(s); !slices.EqualFunc(got, want, func(a, b [][]int32) bool {
			return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
		}) {
			t.Fatalf("round %d: postings after the raced attach differ from a fresh attach's:\n got %v\nwant %v", round, got, want)
		}
	}
}

// regionPostingsOf copies every shard's region postings, trimmed of
// trailing empty lists.
func regionPostingsOf(s *Store) [][][]int32 {
	out := make([][][]int32, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.byRegion {
			out[i] = append(out[i], slices.Clone(p))
		}
		sh.mu.RUnlock()
		for len(out[i]) > 0 && len(out[i][len(out[i])-1]) == 0 {
			out[i] = out[i][:len(out[i])-1]
		}
	}
	return out
}
