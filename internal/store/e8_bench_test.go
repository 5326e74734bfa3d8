package store

// E8 (DESIGN.md §4): mixed region/annotation/time query workload —
// hierarchy-compiled plans on the sharded engine vs the expand-to-leaf
// string loop users had to hand-write before the planner existed. The
// legacy side below is a verbatim-discipline copy of that loop: snapshot
// the store once (st.All()), expand each region to its member cell set,
// and scan every trajectory's strings per query.
// TestE8CompiledRegionBeatsExpandToLeaf enforces the acceptance
// criterion in tier-1 as a ≥100× heap-allocation ratio.

import (
	"fmt"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/topo"
)

const (
	e8Wings        = 4  // e7Zones zones split evenly across the wings
	e8ZonesPerWing = 10 // e7Zones / e8Wings
)

// e8Wing returns the wing id owning a zone number.
func e8Wing(zone int) string { return fmt.Sprintf("wing%d", zone/e8ZonesPerWing) }

// e8Model compiles the museum → wing → zone hierarchy over the E7 synthetic
// zone alphabet.
func e8Model(tb testing.TB) *indoor.RegionTable {
	tb.Helper()
	sg := indoor.NewSpaceGraph()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(sg.AddLayer(indoor.Layer{ID: "Museum", Rank: 2}))
	must(sg.AddLayer(indoor.Layer{ID: "Wing", Rank: 1}))
	must(sg.AddLayer(indoor.Layer{ID: "Zone", Rank: 0}))
	must(sg.AddCell(indoor.Cell{ID: "museum", Layer: "Museum"}))
	for w := 0; w < e8Wings; w++ {
		id := fmt.Sprintf("wing%d", w)
		must(sg.AddCell(indoor.Cell{ID: id, Layer: "Wing"}))
		must(sg.AddJoint("museum", id, topo.NTPPi))
	}
	for z := 0; z < e7Zones; z++ {
		id := fmt.Sprintf("zone%02d", z)
		must(sg.AddCell(indoor.Cell{ID: id, Layer: "Zone"}))
		must(sg.AddJoint(e8Wing(z), id, topo.NTPPi))
	}
	rt, err := indoor.CompileRegions(sg, indoor.Hierarchy{Layers: []string{"Museum", "Wing", "Zone"}})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// e8Store loads the full E7 synthetic set into a region-attached store.
func e8Store(tb testing.TB) *Store {
	tb.Helper()
	st := New()
	st.AttachRegions(e8Model(tb))
	st.PutBatch(e7Trajectories(tb))
	return st
}

// ---- The legacy expand-to-leaf engine (the E8 "before") ------------------

// e8Legacy is the pre-planner discipline: one full snapshot, member sets
// expanded from the region table, string scans per query.
type e8Legacy struct {
	all  []core.Trajectory
	rt   *indoor.RegionTable
	sets map[string]map[string]bool // region id → member cell set
}

func newE8Legacy(st *Store, rt *indoor.RegionTable) *e8Legacy {
	l := &e8Legacy{all: st.All(), rt: rt, sets: make(map[string]map[string]bool)}
	for idx := int32(0); int(idx) < rt.NumRegions(); idx++ {
		ref := rt.Ref(idx)
		set := make(map[string]bool)
		for _, m := range rt.Members(idx) {
			set[m] = true
		}
		l.sets[ref.Layer+"\x00"+ref.ID] = set
	}
	return l
}

func (l *e8Legacy) set(layer, id string) map[string]bool { return l.sets[layer+"\x00"+id] }

// regionTimeScan: trajectories touching the region whose span overlaps the
// window.
func (l *e8Legacy) regionTimeScan(layer, id string, from, to time.Time) []core.Trajectory {
	set := l.set(layer, id)
	var out []core.Trajectory
	for _, t := range l.all {
		if t.End().Before(from) || t.Start().After(to) {
			continue
		}
		for _, p := range t.Trace {
			if set[p.Cell] {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// regionAnnTimeScan adds the trajectory-annotation filter.
func (l *e8Legacy) regionAnnTimeScan(layer, id, key, value string, from, to time.Time) []core.Trajectory {
	set := l.set(layer, id)
	var out []core.Trajectory
	for _, t := range l.all {
		if t.End().Before(from) || t.Start().After(to) || !t.Ann.Has(key, value) {
			continue
		}
		for _, p := range t.Trace {
			if set[p.Cell] {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// throughRegionsScan: the block-split run over every trajectory's deduped
// string sequence.
func (l *e8Legacy) throughRegionsScan(refs ...indoor.RegionRef) []core.Trajectory {
	sets := make([]map[string]bool, len(refs))
	for i, ref := range refs {
		sets[i] = l.set(ref.Layer, ref.ID)
	}
	var out []core.Trajectory
	for _, t := range l.all {
		if stringRegionRun(dedupStrings(t.Trace.Cells()), sets) {
			out = append(out, t)
		}
	}
	return out
}

// eitherRegionTimeScan: trajectories touching either region in the window.
func (l *e8Legacy) eitherRegionTimeScan(layerA, idA, layerB, idB string, from, to time.Time) []core.Trajectory {
	sa, sb := l.set(layerA, idA), l.set(layerB, idB)
	var out []core.Trajectory
	for _, t := range l.all {
		if t.End().Before(from) || t.Start().After(to) {
			continue
		}
		for _, p := range t.Trace {
			if sa[p.Cell] || sb[p.Cell] {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// ---- The shared E8 workload ---------------------------------------------

const e8Rounds = 24

// e8CompiledWorkload runs the mixed workload through the planner and
// returns the total matches (to defeat dead-code elimination).
func e8CompiledWorkload(st *Store) int {
	total := 0
	for r := 0; r < e8Rounds; r++ {
		from, to := e7Window(r * 7)
		w1 := fmt.Sprintf("wing%d", r%e8Wings)
		w2 := fmt.Sprintf("wing%d", (r+1)%e8Wings)
		got, _ := st.Select(And(Region("Wing", w1), TimeOverlap(from, to)))
		total += len(got)
		got, _ = st.Select(And(Region("Wing", w2), HasAnnotation("style", fmt.Sprint(r%4)), TimeOverlap(from, to)))
		total += len(got)
		got, _ = st.Select(And(
			ThroughRegions(indoor.RegionRef{Layer: "Wing", ID: w1}, indoor.RegionRef{Layer: "Wing", ID: w2}),
			TimeOverlap(from, to)))
		total += len(got)
		got, _ = st.Select(And(Or(Region("Wing", w1), Region("Wing", w2)), TimeOverlap(from, to)))
		total += len(got)
	}
	return total
}

// e8LegacyWorkload runs the identical workload through the expand-to-leaf
// string scans.
func e8LegacyWorkload(l *e8Legacy) int {
	total := 0
	for r := 0; r < e8Rounds; r++ {
		from, to := e7Window(r * 7)
		w1 := fmt.Sprintf("wing%d", r%e8Wings)
		w2 := fmt.Sprintf("wing%d", (r+1)%e8Wings)
		total += len(l.regionTimeScan("Wing", w1, from, to))
		total += len(l.regionAnnTimeScan("Wing", w2, "style", fmt.Sprint(r%4), from, to))
		refs := []indoor.RegionRef{{Layer: "Wing", ID: w1}, {Layer: "Wing", ID: w2}}
		matched := l.throughRegionsScan(refs...)
		for _, t := range matched {
			if !t.End().Before(from) && !t.Start().After(to) {
				total++
			}
		}
		total += len(l.eitherRegionTimeScan("Wing", w1, "Wing", w2, from, to))
	}
	return total
}

// BenchmarkE8ExpandToLeafMixed (E8 before): the hand-written string loop.
func BenchmarkE8ExpandToLeafMixed(b *testing.B) {
	st := e8Store(b)
	legacy := newE8Legacy(st, st.Regions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e8LegacyWorkload(legacy) == 0 {
			b.Fatal("workload matched nothing")
		}
	}
}

// BenchmarkE8CompiledRegionMixed (E8 after): the same workload as compiled
// plans over region postings.
func BenchmarkE8CompiledRegionMixed(b *testing.B) {
	st := e8Store(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e8CompiledWorkload(st) == 0 {
			b.Fatal("workload matched nothing")
		}
	}
}

// TestE8CompiledRegionBeatsExpandToLeaf enforces the E8 acceptance
// criterion in tier-1 by counting rather than timing, which a loaded or
// race-instrumented runner compresses. On the mixed region/annotation/time
// workload both engines must agree on the total result count, and the
// compiled plans must make ≥100× fewer heap allocations than the
// expand-to-leaf scans: the through-regions scan builds every
// trajectory's cell-string sequence and its dedup for each query, and the
// scans grow their answers trajectory by trajectory, while a plan works on
// int32 slot lists and builds only its answer. Measured: 1 906 641 against
// 7 473 (255×), the same under -race. The wall-clock ratio is only
// logged; BenchmarkE8* measure it.
func TestE8CompiledRegionBeatsExpandToLeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E8 workload")
	}
	st := e8Store(t)
	legacy := newE8Legacy(st, st.Regions())

	wantTotal := e8LegacyWorkload(legacy)
	gotTotal := e8CompiledWorkload(st)
	if wantTotal != gotTotal {
		t.Fatalf("engines disagree: compiled %d vs legacy %d matches", gotTotal, wantTotal)
	}
	if wantTotal == 0 {
		t.Fatal("workload matched nothing")
	}

	var legacyDur, compiledDur time.Duration
	legacyAllocs := testing.AllocsPerRun(1, func() {
		start := time.Now()
		e8LegacyWorkload(legacy)
		legacyDur = time.Since(start)
	})
	compiledAllocs := testing.AllocsPerRun(1, func() {
		start := time.Now()
		e8CompiledWorkload(st)
		compiledDur = time.Since(start)
	})
	t.Logf("E8: expand-to-leaf %.0f allocations in %v, compiled %.0f in %v (%.0fx fewer, %.1fx faster), %d matches",
		legacyAllocs, legacyDur, compiledAllocs, compiledDur, legacyAllocs/compiledAllocs,
		float64(legacyDur)/float64(compiledDur), wantTotal)
	if compiledAllocs*100 > legacyAllocs {
		t.Fatalf("compiled plans made %.0f heap allocations, not ≥100x fewer than the expand-to-leaf scans' %.0f (%.1fx)",
			compiledAllocs, legacyAllocs, legacyAllocs/compiledAllocs)
	}
}
