package store

// Work-count tests of the conjunct executor: what a plan examines (per-slot
// tests plus entries visited by intersections and unions,
// execCtx.examined) is counted, not timed, so the bounds are exact and
// deterministic.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
)

// planExamined runs q in every shard of s and returns the slots and
// posting entries the executor examined in total.
func planExamined(tb testing.TB, s *Store, q Query) int {
	tb.Helper()
	cq, err := s.Compile(q)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ctx := execCtx{s: s, sh: sh}
		cq.plan.exec(&ctx)
		sh.mu.RUnlock()
		n += ctx.examined
	}
	return n
}

// shiftTraj returns t with every interval moved by d.
func shiftTraj(t core.Trajectory, d time.Duration) core.Trajectory {
	tr := t.Trace.Clone()
	for k := range tr {
		tr[k].Start = tr[k].Start.Add(d)
		tr[k].End = tr[k].End.Add(d)
	}
	t.Trace = tr
	return t
}

// windowZones describes the zones of a shard that a window's extents do
// not exclude, derived from the slot columns rather than the zone maps:
// their total rows and the slot range [lo, hi] they span (lo > hi when
// there are none).
type windowZones struct {
	rows   int
	lo, hi int32
}

func overlapZones(sh *shard, fromN, toN int64) windowZones {
	w := windowZones{lo: 1, hi: 0}
	n := len(sh.zones)
	if sh.blk != nil {
		n += len(sh.blk.blocks)
	}
	for i := 0; i < n; i++ {
		base, z := sh.zone(i)
		last := base + z.rows
		minStart, maxEnd := slices.Min(sh.starts[base:last]), slices.Max(sh.ends[base:last])
		if maxEnd < fromN || minStart > toN {
			continue
		}
		if w.rows == 0 {
			w.lo = base
		}
		w.rows += int(z.rows)
		w.hi = last - 1
	}
	return w
}

// inRange counts the posting entries inside [lo, hi].
func (w windowZones) inRange(post []int32) int {
	n := 0
	for _, s := range post {
		if s >= w.lo && s <= w.hi {
			n++
		}
	}
	return n
}

// TestConjunctPlansExamineOnlyWindowZones: over a time-ordered store
// (timeOrderedZoneStore), a one-day window prices itself by the zones it touches and so
// drives the conjunction:
//   - And(Region(west), TimeOverlap(day)) examines at most twice the rows
//     of the zones the window touches (their slot tests, then the
//     candidates' side of the intersection) plus the region posting's
//     entries inside those zones' slot range;
//   - And(Through(a, b, c), TimeOverlap(day)) narrows the window's
//     candidates by each member posting, visiting no posting entry
//     outside the zones' slot range.
//
// A plan that lets the region posting drive and time-tests every slot of
// it, or that intersects the run's full member postings first, examines
// several times these bounds.
// timeOrderedZoneStore returns a time-ordered store of 48 days: two
// checkpointed generations of 32-row blocks plus a live tail, with the
// query model's regions attached, and the trajectories it holds in
// insertion order.
func timeOrderedZoneStore(t *testing.T) (*Store, []core.Trajectory, *indoor.RegionTable) {
	t.Helper()
	shards := zoneTestShards()
	rt := queryModel(t)
	rng := rand.New(rand.NewSource(71))
	trajs := randomCorpusTrajs(rng, 1500*shards)
	for i := range trajs {
		trajs[i] = shiftTraj(trajs[i], time.Duration(rng.Intn(45))*24*time.Hour)
	}
	slices.SortStableFunc(trajs, func(a, b core.Trajectory) int { return a.Start().Compare(b.Start()) })

	dir := t.TempDir()
	var s *Store
	withBlockRows(32, func() {
		w := mustOpen(t, dir, Options{Shards: shards})
		for _, part := range [][]core.Trajectory{trajs[:len(trajs)*2/5], trajs[len(trajs)*2/5 : len(trajs)*7/10]} {
			w.PutBatch(part)
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, w)
		s = mustOpen(t, dir, Options{})
		s.PutBatch(trajs[len(trajs)*7/10:])
	})
	t.Cleanup(func() { mustClose(t, s) })
	s.AttachRegions(rt)
	if s.shards[0].blk == nil || len(s.shards[0].zones) == 0 {
		t.Fatal("the store must hold both checkpointed blocks and live zones")
	}
	return s, trajs, rt
}

func TestConjunctPlansExamineOnlyWindowZones(t *testing.T) {
	s, trajs, rt := timeOrderedZoneStore(t)

	// One day inside each generation and one inside the live tail.
	for _, at := range []int{len(trajs) / 5, len(trajs) * 11 / 20, len(trajs) * 17 / 20} {
		from := trajs[at].Start().Truncate(24 * time.Hour)
		to := from.Add(24 * time.Hour)
		fromN, toN := from.UnixNano(), to.UnixNano()

		// A run walked that day.
		var run []string
		for _, tr := range trajs[at:] {
			if cells := dedupStrings(tr.Trace.Cells()); len(cells) >= 3 {
				run = cells[:3]
				break
			}
		}

		regionPlan := And(Region("Wing", "west"), TimeOverlap(from, to))
		runPlan := And(Through(run...), TimeOverlap(from, to))
		for _, q := range []Query{regionPlan, runPlan} {
			got, err := s.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleSelect(trajs, q, rt); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("day %s: %#v answers %d rows, oracle %d (and must match some)", from.Format(time.DateOnly), q, len(got), len(want))
			}
		}

		var regionBound, runBound int
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			w := overlapZones(sh, fromN, toN)
			westIdx, _ := rt.Region("Wing", "west")
			regionBound += 2*w.rows + w.inRange(sh.regionPosting(westIdx))
			// Zone scan and run check, then one intersection per member.
			runBound += 2 * w.rows
			for _, c := range run {
				id, _ := s.cells.Lookup(c)
				runBound += w.rows + w.inRange(sh.posting(id))
			}
			sh.mu.RUnlock()
		}
		all := s.Len()
		if n := planExamined(t, s, regionPlan); n > regionBound {
			t.Fatalf("day %s: And(Region, TimeOverlap) examined %d slots and posting entries, bound %d (store %d rows)",
				from.Format(time.DateOnly), n, regionBound, all)
		} else {
			t.Logf("day %s: And(Region, TimeOverlap) examined %d, bound %d, store %d rows", from.Format(time.DateOnly), n, regionBound, all)
		}
		if n := planExamined(t, s, runPlan); n > runBound {
			t.Fatalf("day %s: And(Through%v, TimeOverlap) examined %d slots and posting entries, bound %d (store %d rows)",
				from.Format(time.DateOnly), run, n, runBound, all)
		} else {
			t.Logf("day %s: And(Through%v, TimeOverlap) examined %d, bound %d", from.Format(time.DateOnly), run, n, runBound)
		}
	}
}

// TestCellDuringProbesOnlyAdmittedZones: over the same time-ordered
// store, a one-hour CellDuring searches its cell's posting only in the
// zones whose rows' extents meet the window and whose bloom admits the
// cell, a few of the hundreds the posting spans. Searching the posting
// for every zone before pruning probes nearly all of them.
func TestCellDuringProbesOnlyAdmittedZones(t *testing.T) {
	s, trajs, _ := timeOrderedZoneStore(t)
	for _, at := range []int{len(trajs) / 5, len(trajs) * 11 / 20, len(trajs) * 17 / 20} {
		tr := trajs[at]
		cell := tr.Trace[0].Cell
		from := tr.Trace[0].Start.Truncate(time.Hour)
		to := from.Add(time.Hour)
		fromN, toN := from.UnixNano(), to.UnixNano()
		q := CellDuring(cell, from, to)
		got, err := s.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSelect(trajs, q, nil); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%#v answers %d rows, oracle %d (and must match some)", q, len(got), len(want))
		}

		cq, err := s.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		probed, admitted, spanned := 0, 0, 0
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			ctx := execCtx{s: s, sh: sh}
			cq.plan.exec(&ctx)
			probed += ctx.probedZones
			id, _ := s.cells.Lookup(cell)
			post := sh.posting(id)
			n := len(sh.zones)
			if sh.blk != nil {
				n += len(sh.blk.blocks)
			}
			for z := 0; z < n; z++ {
				base, zm := sh.zone(z)
				last := base + zm.rows
				if len(post) > 0 && post[0] < last && post[len(post)-1] >= base {
					spanned++
				}
				minStart, maxEnd := slices.Min(sh.starts[base:last]), slices.Max(sh.ends[base:last])
				if maxEnd >= fromN && minStart <= toN && zm.bloomHas(id) {
					admitted++
				}
			}
			sh.mu.RUnlock()
		}
		if probed > admitted {
			t.Fatalf("hour %s: CellDuring(%s) searched its posting in %d zones; the window and bloom admit %d (posting spans %d)",
				from.Format(time.DateTime), cell, probed, admitted, spanned)
		}
		if admitted*4 > spanned {
			t.Fatalf("hour %s: the window admits %d of the %d zones the posting spans; the store is not time-ordered enough to tell", from.Format(time.DateTime), admitted, spanned)
		}
		t.Logf("hour %s: CellDuring(%s) searched the posting in %d zones, %d admitted, posting spans %d", from.Format(time.DateTime), cell, probed, admitted, spanned)
	}
}

// TestTimeWindowResultAllocatesOnce: a kTime node's slots are allocated
// once per shard, at the window's zone-priced row count, instead of
// growing by doubling — over the time-ordered store's checkpointed
// blocks and live zones alike.
func TestTimeWindowResultAllocatesOnce(t *testing.T) {
	s, trajs, _ := timeOrderedZoneStore(t)
	for _, at := range []int{len(trajs) / 5, len(trajs) * 17 / 20} {
		from := trajs[at].Start().Truncate(24 * time.Hour)
		cq, err := s.Compile(TimeOverlap(from, from.Add(7*24*time.Hour)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			ctx := execCtx{s: s, sh: sh}
			if n := len(cq.plan.exec(&ctx)); n < 64 {
				t.Fatalf("shard %d: the window matches %d rows, too few to need a regrowth", i, n)
			}
			allocs := testing.AllocsPerRun(20, func() { cq.plan.exec(&ctx) })
			sh.mu.RUnlock()
			if allocs != 1 {
				t.Fatalf("week from %s, shard %d: a time window allocates %v times, want 1", from.Format(time.DateOnly), i, allocs)
			}
		}
	}
}
