package store

// Zone-map tests for rows the store holds live (inserted since open) and
// for mixed stores (a checkpointed prefix plus live rows): prune
// equivalence at zone boundaries, window edges and row times outside the
// int64 nanosecond range, and the write path's flat per-row cost.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sitm/internal/core"
)

// zoneTestShards is the shard count of the live and mixed prune tests:
// the -shards flag when set (the CI race sweep), else 2.
func zoneTestShards() int {
	if *shardFlag > 0 {
		return *shardFlag
	}
	return 2
}

// zoneCorpus returns shards·perShard rich trajectories whose MOs are
// chosen so every shard of a shards-shard store receives exactly perShard
// rows, either sorted by start (a live feed) or shuffled.
func zoneCorpus(rng *rand.Rand, shards, perShard int, shuffled bool) []core.Trajectory {
	probe := NewSharded(shards)
	names := make([][]string, shards)
	for i := 0; ; i++ {
		mo := fmt.Sprintf("zmo%03d", i)
		g := probe.shardIndex(mo)
		if len(names[g]) < 6 {
			names[g] = append(names[g], mo)
		}
		done := true
		for _, n := range names {
			done = done && len(n) == 6
		}
		if done {
			break
		}
	}
	trajs := richCorpusTrajs(rng, shards*perShard)
	for i := range trajs {
		g := i % shards
		trajs[i].MO = names[g][rng.Intn(len(names[g]))]
	}
	if shuffled {
		rng.Shuffle(len(trajs), func(i, j int) { trajs[i], trajs[j] = trajs[j], trajs[i] })
	} else {
		slices.SortStableFunc(trajs, func(a, b core.Trajectory) int { return a.Start().Compare(b.Start()) })
	}
	return trajs
}

// withBlockRows runs fn with segBlockRows set to rows.
func withBlockRows(rows int, fn func()) {
	prev := segBlockRows
	segBlockRows = rows
	defer func() { segBlockRows = prev }()
	fn()
}

// checkWindowPlans runs randomized TimeOverlap / CellDuring / conjunctive
// plans against s with pruning on and off, and checks both against a
// direct scan of want (the store's contents in insertion order).
func checkWindowPlans(t *testing.T, s *Store, want []core.Trajectory, rng *rand.Rand, n int) {
	t.Helper()
	cells := []string{"A", "B", "C", "D", "E", "F", "G", "H", "Z"}
	for i := 0; i < n; i++ {
		from := day.Add(time.Duration(rng.Intn(5200)) * time.Minute)
		to := from.Add(time.Duration(1+rng.Intn(600)) * time.Minute)
		cell := cells[rng.Intn(len(cells))]
		var q Query
		switch i % 3 {
		case 0:
			q = TimeOverlap(from, to)
		case 1:
			q = CellDuring(cell, from, to)
		default:
			q = And(Cell(cell), TimeOverlap(from, to))
		}
		exp := fmt.Sprint(oracleSelect(want, q, nil))
		for _, noPrune := range []bool{false, true} {
			s.noPrune = noPrune
			got, err := s.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != exp {
				t.Fatalf("query %d (%T, noPrune=%v): %d rows, oracle %d", i, q, noPrune, len(got), len(oracleSelect(want, q, nil)))
			}
		}
		s.noPrune = false
	}
}

// zonePruneLiveAndMixed is TestZoneMapPruneEquivalence's live half: an
// in-memory store and a mixed store (checkpoint the first half, reopen
// writable, Put/PutBatch the rest) at rows-per-shard counts around zone
// boundaries, time-ordered and shuffled, must answer every window plan
// exactly like a direct scan, pruned or not.
func zonePruneLiveAndMixed(t *testing.T) {
	shards := zoneTestShards()
	for _, perShard := range []int{1023, 1024, 1025, 2049} {
		for _, shuffled := range []bool{false, true} {
			order := "ordered"
			if shuffled {
				order = "shuffled"
			}
			seed := int64(perShard)*2 + int64(len(order))
			t.Run(fmt.Sprintf("live/rows=%d/%s", perShard, order), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				trajs := zoneCorpus(rng, shards, perShard, shuffled)
				s := NewSharded(shards)
				withBlockRows(32, func() {
					half := len(trajs) / 2
					s.PutBatch(trajs[:half])
					for _, tr := range trajs[half:] {
						s.Put(tr)
					}
				})
				for i := range s.shards {
					if n := len(s.shards[i].trajs); n != perShard {
						t.Fatalf("shard %d holds %d rows, want %d", i, n, perShard)
					}
					if want := (perShard + 31) / 32; len(s.shards[i].zones) != want {
						t.Fatalf("shard %d has %d live zones, want %d", i, len(s.shards[i].zones), want)
					}
				}
				checkWindowPlans(t, s, trajs, rng, 45)
			})
			t.Run(fmt.Sprintf("mixed/rows=%d/%s", perShard, order), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed + 1))
				trajs := zoneCorpus(rng, shards, perShard, shuffled)
				dir := t.TempDir()
				half := len(trajs) / 2
				var s *Store
				withBlockRows(32, func() {
					w := mustOpen(t, dir, Options{Shards: shards})
					w.PutBatch(trajs[:half])
					if err := w.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					mustClose(t, w)
					s = mustOpen(t, dir, Options{})
					for i, tr := range trajs[half:] {
						if i%3 == 0 {
							s.Put(tr)
						} else {
							s.PutBatch([]core.Trajectory{tr})
						}
					}
				})
				defer mustClose(t, s)
				if s.shards[0].blk == nil || len(s.shards[0].zones) == 0 {
					t.Fatal("mixed store must hold both checkpointed blocks and live zones")
				}
				// Only the rows put after the reopen hold trajectory values.
				live := make([]int, shards)
				for _, tr := range trajs[half:] {
					live[s.shardIndex(tr.MO)]++
				}
				for i := range s.shards {
					if n := len(s.shards[i].trajs); n != live[i] {
						t.Fatalf("shard %d holds %d trajectory values, want its %d post-reopen rows", i, n, live[i])
					}
				}
				checkWindowPlans(t, s, trajs, rng, 45)
			})
		}
	}
}

// TestLiveZonesPruneTimeOrderedFeed: rows that arrive in time order fill
// narrow live zones, so a one-hour TimeOverlap tests slot by slot exactly
// the zones whose extents neither exclude nor cover the window (derived
// from the corpus, as E11 does for checkpointed blocks) — a small share
// of them. A shuffled feed of the same rows gets wide zones.
func TestLiveZonesPruneTimeOrderedFeed(t *testing.T) {
	shards := zoneTestShards()
	from := day.Add(40 * time.Hour)
	to := from.Add(time.Hour)
	for _, shuffled := range []bool{false, true} {
		trajs := zoneCorpus(rand.New(rand.NewSource(37)), shards, 1024, shuffled)
		s := NewSharded(shards)
		var want e11BlockCounts
		withBlockRows(e11BlockRows, func() {
			for lo := 0; lo < len(trajs); lo += 100 {
				s.PutBatch(trajs[lo:min(lo+100, len(trajs))])
			}
			want = e11WindowBlocks(s, trajs, from, to)
		})
		cq, err := s.Compile(TimeOverlap(from, to))
		if err != nil {
			t.Fatal(err)
		}
		scanned := 0
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			ctx := execCtx{s: s, sh: sh}
			cq.plan.exec(&ctx)
			sh.mu.RUnlock()
			scanned += ctx.scannedZones
		}
		if scanned != want.scanned {
			t.Fatalf("shuffled=%v: prune loop scanned %d live zones slot by slot, want %d of %d", shuffled, scanned, want.scanned, want.total)
		}
		if !shuffled && (want.matching == 0 || 4*scanned > want.total) {
			t.Fatalf("time-ordered feed: window matches %d zones and scans %d of %d, want a match and at most a quarter scanned",
				want.matching, scanned, want.total)
		}
		t.Logf("shuffled=%v: %d of %d live zones scanned slot by slot", shuffled, scanned, want.total)
	}
}

// TestWindowEdgesOutsideNanosRange pins window edges that UnixNano cannot
// represent (before 1677-09-21 or after 2262-04-11): cold, live and mixed
// stores holding 50 rows from 2017 must answer TimeOverlap, CellDuring
// and the canned queries exactly like direct time.Time comparisons.
func TestWindowEdgesOutsideNanosRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trajs := randomCorpusTrajs(rng, 50)
	year := func(y int) time.Time { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC) }
	windows := [][2]time.Time{
		{{}, time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)},
		{year(1000), year(2100)},
		{year(2000), year(3000)},
		{year(1000), year(1600)},
		{year(2300), year(3000)},
		{year(1000), day.Add(30 * time.Hour)},
		{day.Add(30 * time.Hour), year(2500)},
	}
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Shards: 2})
	w.PutBatch(trajs[:30])
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.PutBatch(trajs[30:])
	mustClose(t, w)
	cold := mustOpen(t, dir, Options{ReadOnly: true})
	defer mustClose(t, cold)
	mixed := mustOpen(t, dir, Options{})
	defer mustClose(t, mixed)
	live := NewSharded(2)
	live.PutBatch(trajs)
	for name, s := range map[string]*Store{"cold": cold, "mixed": mixed, "live": live} {
		checkEdgeWindows(t, name, s, trajs, windows)
	}
	// The three windows covering 2017 match every row.
	for _, w := range windows[:3] {
		if n := len(live.Overlapping(w[0], w[1])); n != len(trajs) {
			t.Fatalf("Overlapping(%v, %v) = %d rows, want %d", w[0], w[1], n, len(trajs))
		}
	}
}

// checkEdgeWindows compares every window query of s against a direct scan.
func checkEdgeWindows(t *testing.T, name string, s *Store, want []core.Trajectory, windows [][2]time.Time) {
	t.Helper()
	for _, w := range windows {
		from, to := w[0], w[1]
		for _, q := range []Query{TimeOverlap(from, to), CellDuring("C", from, to), And(Cell("A"), TimeOverlap(from, to))} {
			got, err := s.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if exp := oracleSelect(want, q, nil); fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s: %T over [%v, %v]: %d rows, want %d", name, q, from, to, len(got), len(exp))
			}
		}
		if a, b := fmt.Sprint(s.Overlapping(from, to)), fmt.Sprint(oracleSelect(want, TimeOverlap(from, to), nil)); a != b {
			t.Fatalf("%s: Overlapping over [%v, %v] diverges from a direct scan", name, from, to)
		}
		if a, b := fmt.Sprint(s.InCellDuring("C", from, to)), fmt.Sprint(oracleSelectMOs(want, CellDuring("C", from, to), nil)); a != b {
			t.Fatalf("%s: InCellDuring over [%v, %v] = %s, want %s", name, from, to, a, b)
		}
	}
}

// farTraj is a one-interval trajectory over [start, end].
func farTraj(t *testing.T, mo string, start, end time.Time) core.Trajectory {
	t.Helper()
	tr, err := core.NewTrajectory(mo, core.Trace{{Cell: "C", Start: start, End: end}}, core.NewAnnotations("activity", "far"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// farRows are rows whose times UnixNano cannot represent: a year-3000
// row, a year-1500 row and one straddling 2262-04-11.
func farRows(t *testing.T) []core.Trajectory {
	t.Helper()
	return []core.Trajectory{
		farTraj(t, "far-future", time.Date(3000, 1, 1, 10, 0, 0, 0, time.UTC), time.Date(3000, 1, 1, 11, 0, 0, 0, time.UTC)),
		farTraj(t, "far-past", time.Date(1500, 6, 1, 10, 0, 0, 0, time.UTC), time.Date(1500, 6, 1, 11, 0, 0, 0, time.UTC)),
		farTraj(t, "straddle", time.Date(2262, 4, 10, 0, 0, 0, 0, time.UTC), time.Date(2262, 4, 12, 0, 0, 0, 0, time.UTC)),
	}
}

// TestInMemoryStoreHoldsRowsOutsideNanosRange: an in-memory store takes
// any time; the zones holding such rows never prune or cover, so every
// window still answers like a direct scan.
func TestInMemoryStoreHoldsRowsOutsideNanosRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trajs := append(randomCorpusTrajs(rng, 40), farRows(t)...)
	rng.Shuffle(len(trajs), func(i, j int) { trajs[i], trajs[j] = trajs[j], trajs[i] })
	s := NewSharded(2)
	withBlockRows(8, func() { s.PutBatch(trajs) })
	year := func(y int) time.Time { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC) }
	checkEdgeWindows(t, "live", s, trajs, [][2]time.Time{
		{year(2999), year(3001)},
		{year(1499), year(1501)},
		{year(2262), year(2263)},
		{year(1000), year(4000)},
		{day, day.Add(24 * time.Hour)},
		{year(1600), year(2200)},
	})
}

// TestDurableRejectsRowsOutsideNanosRange: a durable store must not apply
// a write whose times its WAL and segments cannot store. The write is
// dropped whole with a sticky error, so Sync never acks it, and neither
// WAL replay nor a checkpoint plus reopen can bring back a corrupted row.
func TestDurableRejectsRowsOutsideNanosRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	good := randomCorpusTrajs(rng, 20)
	want := NewSharded(2)
	want.PutBatch(good)
	// An empty trace has the zero time.Time as its span.
	for _, bad := range append(farRows(t), core.Trajectory{MO: "empty-trace"}) {
		t.Run(bad.MO, func(t *testing.T) {
			// WAL replay.
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Shards: 2})
			s.PutBatch(good[:10])
			s.PutBatch(good[10:])
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			s.Put(bad)
			s.PutBatch([]core.Trajectory{good[0], bad})
			if s.Len() != len(good) {
				t.Fatalf("rejected writes were applied: Len = %d, want %d", s.Len(), len(good))
			}
			if err := s.Sync(); err == nil {
				t.Fatal("Sync acked a write holding an unstorable time")
			}
			if err := s.Close(); err == nil {
				t.Fatal("Close must report the sticky error")
			}
			re := mustOpen(t, dir, Options{})
			if storeJSON(t, re) != storeJSON(t, want) {
				t.Fatal("WAL replay diverges from the accepted rows")
			}
			mustClose(t, re)

			// Checkpoint plus reopen.
			dir = t.TempDir()
			s = mustOpen(t, dir, Options{Shards: 2})
			s.PutBatch(good)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.PutBatch([]core.Trajectory{bad})
			if err := s.Checkpoint(); err == nil {
				t.Fatal("Checkpoint after a rejected write must report the sticky error")
			}
			s.Close()
			for _, opts := range []Options{{ReadOnly: true}, {}} {
				re := mustOpen(t, dir, opts)
				if storeJSON(t, re) != storeJSON(t, want) {
					t.Fatalf("reopen (read-only=%v) diverges from the accepted rows", opts.ReadOnly)
				}
				mustClose(t, re)
			}
		})
	}
}

// TestDecodeSegmentV2RejectsSaturatedSpans: the extremes of int64 stand
// for saturated times in the shard's span columns, and no writer stores
// one, so a segment whose span reaches either extreme fails to decode.
func TestDecodeSegmentV2RejectsSaturatedSpans(t *testing.T) {
	for _, span := range [][2]int64{{1, math.MaxInt64}, {math.MinInt64, -1}} {
		st, en := time.Unix(0, span[0]).UTC(), time.Unix(0, span[1]).UTC()
		c := segmentColumns{
			seqs: []uint64{0}, moIDs: []int32{0}, encs: [][]int32{{0}}, anns: [][]int32{nil},
			starts: []int64{span[0]}, ends: []int64{span[1]},
			trajs: []core.Trajectory{{MO: "s", Trace: core.Trace{{Cell: "s", Start: st, End: en}}}},
		}
		var sh shard
		sh.init()
		seg, _ := encodeSegmentV2(&c)
		_, err := sh.decodeSegments([]segFile{memSegFile("t", seg)}, 1, 1, 1, newBlockCache(-1))
		if err == nil || !strings.Contains(err.Error(), "span time outside the storable range") {
			t.Fatalf("span %v: err = %v", span, err)
		}
	}
}

// TestReadersRejectTimesOutsideNanosRange: the CSV detection reader and
// ReadJSON refuse times the durable formats cannot store, naming the row.
func TestReadersRejectTimesOutsideNanosRange(t *testing.T) {
	csv := "mo,cell,start,end\n" +
		"mo-1,hall,2019-05-01T10:00:00Z,2019-05-01T10:05:00Z\n" +
		"mo-1,hall,3000-05-01T10:00:00Z,3000-05-01T10:05:00Z\n"
	_, err := ReadDetectionsCSV(strings.NewReader(csv))
	if err == nil || !strings.Contains(err.Error(), "csv row 3: time 3000-05-01T10:00:00Z outside the storable range") {
		t.Fatalf("CSV with a year-3000 row: err = %v", err)
	}

	s := NewSharded(2)
	s.Put(farRows(t)[0]) // in-memory stores take any time
	var doc strings.Builder
	if err := s.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	dst := NewSharded(2)
	if err := dst.ReadJSON(strings.NewReader(doc.String())); err == nil || !strings.Contains(err.Error(), "trajectory 0: trajectory \"far-future\" interval 0: time 3000-01-01T10:00:00Z outside") {
		t.Fatalf("ReadJSON of a year-3000 row: err = %v", err)
	}
	if dst.Len() != 0 {
		t.Fatal("rejected ReadJSON must leave the store untouched")
	}
}

// reserve pre-grows every append-only column and posting list of sh by n
// entries, so the batches TestPutBatchCostFlatInStoreSize measures pay no
// amortized slice regrowth: Go grows small slices by up to 2x and large
// ones by 1.25x, which alone would make regrowth's per-row share differ
// by store size for reasons outside the store's own write path.
func reserve(sh *shard, n int) {
	sh.seqs = slices.Grow(sh.seqs, n)
	sh.trajs = slices.Grow(sh.trajs, n)
	sh.encs = slices.Grow(sh.encs, n)
	sh.anns = slices.Grow(sh.anns, n)
	sh.moIDs = slices.Grow(sh.moIDs, n)
	sh.starts = slices.Grow(sh.starts, n)
	sh.ends = slices.Grow(sh.ends, n)
	sh.zones = slices.Grow(sh.zones, n/segBlockRows+1)
	for id, slots := range sh.byMO {
		sh.byMO[id] = slices.Grow(slots, n)
	}
	for _, lists := range [][][]int32{sh.byCell, sh.byPair, sh.byRegion} {
		for i := range lists {
			lists[i] = slices.Grow(lists[i], n)
		}
	}
}

// TestPutBatchCostFlatInStoreSize is the write path's scaling guard: the
// bytes 128-row PutBatches allocate per row into a 64k-row store must
// stay within 1.25x of those into a 1k-row store: no per-batch work may
// grow with the store. Measured as the mean over nine batches after
// reserve; no wall clock is read.
func TestPutBatchCostFlatInStoreSize(t *testing.T) {
	perRow := func(size int) float64 {
		rng := rand.New(rand.NewSource(37))
		s := NewSharded(1)
		s.PutBatch(randomCorpusTrajs(rng, size))
		const batches, batch = 9, 128
		fresh := randomCorpusTrajs(rng, batches*batch)
		reserve(&s.shards[0], len(fresh))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for b := 0; b < batches; b++ {
			s.PutBatch(fresh[b*batch : (b+1)*batch])
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / float64(len(fresh))
	}
	small, large := perRow(1<<10), perRow(1<<16)
	t.Logf("PutBatch: %.0f B/row into 1k rows, %.0f B/row into 64k rows (%.2fx)", small, large, large/small)
	if large > 1.25*small {
		t.Fatalf("PutBatch allocates %.0f B/row into a 64k-row store vs %.0f B/row into a 1k-row store (%.2fx > 1.25x)",
			large, small, large/small)
	}
}
