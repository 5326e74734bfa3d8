package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
)

// This file is the planner's correctness property: compiled region plans
// are bit-equal to an expand-to-leaf string-scan oracle — the hand-written
// loop over strings a user had to write before the planner existed —
// across randomized corpora, randomized composed queries, shard counts
// {1, 2, 8} and GOMAXPROCS {1, 8}.

// oracleEval scans one trajectory against a query in pure string world.
// Region predicates expand to the region's member cell set and scan the
// trace; everything else is the obvious linear check.
func oracleEval(t core.Trajectory, q Query, rt *indoor.RegionTable) bool {
	switch n := q.(type) {
	case cellQ:
		for _, p := range t.Trace {
			if p.Cell == n.name {
				return true
			}
		}
		return false
	case regionQ:
		idx, ok := rt.Region(n.ref.Layer, n.ref.ID)
		if !ok {
			return false
		}
		members := memberSet(rt, idx)
		for _, p := range t.Trace {
			if members[p.Cell] {
				return true
			}
		}
		return false
	case timeQ:
		return !t.End().Before(n.from) && !t.Start().After(n.to)
	case moQ:
		return t.MO == n.mo
	case annQ:
		return t.Ann.Has(n.key, n.value)
	case cellDuringQ:
		for _, p := range t.Trace {
			if p.Cell == n.cell && !p.End.Before(n.from) && !p.Start.After(n.to) {
				return true
			}
		}
		return false
	case throughQ:
		return containsStringRun(dedupStrings(t.Trace.Cells()), n.cells)
	case throughRegionsQ:
		seq := dedupStrings(t.Trace.Cells())
		sets := make([]map[string]bool, len(n.refs))
		for i, ref := range n.refs {
			idx, ok := rt.Region(ref.Layer, ref.ID)
			if !ok {
				return false
			}
			sets[i] = memberSet(rt, idx)
		}
		return stringRegionRun(seq, sets)
	case andQ:
		for _, kid := range n.kids {
			if !oracleEval(t, kid, rt) {
				return false
			}
		}
		return true
	case orQ:
		for _, kid := range n.kids {
			if oracleEval(t, kid, rt) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("oracle: unknown node %T", q))
}

func memberSet(rt *indoor.RegionTable, idx int32) map[string]bool {
	set := make(map[string]bool)
	for _, m := range rt.Members(idx) {
		set[m] = true
	}
	return set
}

// stringRegionRun is the oracle's block-split check: the deduplicated cell
// sequence must split somewhere into consecutive non-empty blocks, block b
// inside sets[b] — the same DP as the engine, over strings and maps.
func stringRegionRun(seq []string, sets []map[string]bool) bool {
	L := len(seq)
	if L == 0 {
		return false
	}
	reach := make([]bool, L+1)
	for i := 0; i < L; i++ {
		reach[i] = true
	}
	for _, set := range sets {
		next := make([]bool, L+1)
		any := false
		for i := 0; i < L; i++ {
			if !reach[i] || !set[seq[i]] {
				continue
			}
			for j := i; j < L && set[seq[j]]; j++ {
				next[j+1] = true
				any = true
			}
		}
		if !any {
			return false
		}
		reach = next
	}
	return true
}

// oracleSelect scans the insertion-ordered trajectory list.
func oracleSelect(all []core.Trajectory, q Query, rt *indoor.RegionTable) []core.Trajectory {
	var out []core.Trajectory
	for _, t := range all {
		if oracleEval(t, q, rt) {
			out = append(out, t)
		}
	}
	return out
}

// oracleSelectMOs returns the distinct MOs of the matches, sorted.
func oracleSelectMOs(all []core.Trajectory, q Query, rt *indoor.RegionTable) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range all {
		if !seen[t.MO] && oracleEval(t, q, rt) {
			seen[t.MO] = true
			out = append(out, t.MO)
		}
	}
	sort.Strings(out)
	return out
}

// randomQuery draws a random composed query over the A..H / west-east /
// campus model, annotations and windows of randomCorpusTrajs.
func randomQuery(rng *rand.Rand, depth int) Query {
	cells := []string{"A", "B", "C", "D", "E", "F", "G", "H", "Z"}
	wings := []string{"west", "east"}
	region := func() Query {
		switch rng.Intn(3) {
		case 0:
			return Region("Wing", wings[rng.Intn(2)])
		case 1:
			return Region("Building", "campus")
		default:
			return Region("Zone", cells[rng.Intn(8)]) // never Z: unknown regions error
		}
	}
	window := func() (time.Time, time.Time) {
		from := day.Add(time.Duration(rng.Intn(6000)) * time.Minute)
		return from, from.Add(time.Duration(rng.Intn(900)) * time.Minute)
	}
	leaf := func() Query {
		switch rng.Intn(8) {
		case 0:
			return Cell(cells[rng.Intn(len(cells))])
		case 1:
			return region()
		case 2:
			from, to := window()
			return TimeOverlap(from, to)
		case 3:
			return ByMO(fmt.Sprintf("mo%02d", rng.Intn(16))) // some unknown
		case 4:
			return HasAnnotation("activity", fmt.Sprint(rng.Intn(4)))
		case 5:
			run := make([]string, 1+rng.Intn(3))
			for i := range run {
				run[i] = cells[rng.Intn(len(cells))]
			}
			return Through(run...)
		case 6:
			refs := make([]indoor.RegionRef, 1+rng.Intn(3))
			for i := range refs {
				if rng.Intn(2) == 0 {
					refs[i] = indoor.RegionRef{Layer: "Wing", ID: wings[rng.Intn(2)]}
				} else {
					refs[i] = indoor.RegionRef{Layer: "Zone", ID: cells[rng.Intn(8)]}
				}
			}
			return ThroughRegions(refs...)
		default:
			from, to := window()
			return CellDuring(cells[rng.Intn(len(cells))], from, to)
		}
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return leaf()
	}
	n := 2 + rng.Intn(2)
	kids := make([]Query, n)
	for i := range kids {
		kids[i] = randomQuery(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And(kids...)
	}
	return Or(kids...)
}

// TestCompiledRegionPlansMatchOracle is the acceptance property: for every
// randomized composed query, Select/SelectMOs are bit-equal to the
// expand-to-leaf string-scan oracle, at GOMAXPROCS 1 and 8, with zone
// pruning on and off, and under every permutation of each And's children.
// Two corpora are checked. A small one in random order, in memory at 1, 2
// and 8 shards, is one zone per shard. A time-ordered one on durable
// stores at 1, 2 and 8 shards (or the -shards count alone), two thirds
// checkpointed in 16-row blocks and the rest a live tail of 16-row zones,
// has many zones: a time window there is priced by the few zones it
// touches and drives its conjunction, and the few candidates of two rare
// MOs are intersected with long postings.
func TestCompiledRegionPlansMatchOracle(t *testing.T) {
	rt := queryModel(t)
	zoneShards := []int{1, 2, 8}
	if *shardFlag > 0 {
		zoneShards = []int{*shardFlag}
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				small := oracleCorpus{name: "in-memory", trajs: randomCorpusTrajs(rng, 60+rng.Intn(60))}
				var chunks []int
				for c := 0; c < len(small.trajs); {
					n := 1 + rng.Intn(9)
					chunks = append(chunks, n)
					c += n
				}
				for _, shards := range []int{1, 2, 8} {
					st := NewSharded(shards)
					st.AttachRegions(rt)
					applySchedule(st, small.trajs, chunks)
					small.stores = append(small.stores, st)
				}
				corpora := []oracleCorpus{small}
				if seed < 2 {
					corpora = append(corpora, zonedCorpus(t, rng, rt, zoneShards))
				}
				for _, cp := range corpora {
					qrng := rand.New(rand.NewSource(seed ^ 0x7e57))
					for probe := 0; probe < 60; probe++ {
						q := randomQuery(qrng, 2)
						want := trajSig(oracleSelect(cp.trajs, q, rt))
						wantMOs := fmt.Sprint(oracleSelectMOs(cp.trajs, q, rt))
						for i, st := range cp.stores {
							for _, noPrune := range []bool{false, true} {
								st.noPrune = noPrune
								for v, pq := range andPermutations(q) {
									at := fmt.Sprintf("seed %d %s probe %d shards-case %d variant %d (noPrune=%v)",
										seed, cp.name, probe, i, v, noPrune)
									got, err := st.Select(pq)
									if err != nil {
										t.Fatalf("%s: Select: %v", at, err)
									}
									if sig := trajSig(got); sig != want {
										t.Fatalf("%s query %#v:\ncompiled %s\noracle   %s", at, pq, sig, want)
									}
									gotMOs, err := st.SelectMOs(pq)
									if err != nil {
										t.Fatal(err)
									}
									if sig := fmt.Sprint(gotMOs); sig != wantMOs {
										t.Fatalf("%s SelectMOs: %s vs %s", at, sig, wantMOs)
									}
								}
							}
							st.noPrune = false
						}
					}
				}
			}
		})
	}
}

// oracleCorpus is one corpus of TestCompiledRegionPlansMatchOracle and
// the stores that hold it.
type oracleCorpus struct {
	name   string
	trajs  []core.Trajectory
	stores []*Store
}

// zonedCorpus builds the many-zone corpus of
// TestCompiledRegionPlansMatchOracle: 600 random trajectories in start
// order, mo00 and mo01 made rare, on one durable store per shard count.
func zonedCorpus(t *testing.T, rng *rand.Rand, rt *indoor.RegionTable, shardCounts []int) (cp oracleCorpus) {
	t.Helper()
	cp.name = "durable many-zone"
	cp.trajs = randomCorpusTrajs(rng, 600)
	for i := range cp.trajs {
		if (cp.trajs[i].MO == "mo00" || cp.trajs[i].MO == "mo01") && rng.Intn(8) != 0 {
			cp.trajs[i].MO = fmt.Sprintf("mo%02d", 2+rng.Intn(12))
		}
	}
	slices.SortStableFunc(cp.trajs, func(a, b core.Trajectory) int { return a.Start().Compare(b.Start()) })
	for _, shards := range shardCounts {
		dir := t.TempDir()
		withBlockRows(16, func() {
			w := mustOpen(t, dir, Options{Shards: shards})
			w.PutBatch(cp.trajs[:400])
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustClose(t, w)
			s := mustOpen(t, dir, Options{})
			t.Cleanup(func() { mustClose(t, s) })
			applySchedule(s, cp.trajs[400:], []int{1, 7, 3, 40, 1, 9})
			s.AttachRegions(rt)
			cp.stores = append(cp.stores, s)
		})
	}
	return cp
}

// andPermutations returns q followed by every variant of q that reorders
// the children of one of its And nodes: each And in turn takes every
// permutation of its children while the rest of the plan stays fixed.
func andPermutations(q Query) []Query {
	out := []Query{q}
	var kids []Query
	rebuild := And
	switch n := q.(type) {
	case andQ:
		kids = n.kids
	case orQ:
		kids, rebuild = n.kids, Or
	default:
		return out
	}
	for i, kid := range kids {
		for _, v := range andPermutations(kid)[1:] {
			k := slices.Clone(kids)
			k[i] = v
			out = append(out, rebuild(k...))
		}
	}
	if _, ok := q.(andQ); ok {
		for _, p := range permutations(len(kids))[1:] {
			k := make([]Query, len(kids))
			for i, j := range p {
				k[i] = kids[j]
			}
			out = append(out, And(k...))
		}
	}
	return out
}

// permutations returns every ordering of 0..n-1, the identity first.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for pos := len(p); pos >= 0; pos-- {
			out = append(out, slices.Insert(slices.Clone(p), pos, n-1))
		}
	}
	return out
}

// TestRegionPlansAfterAttachEqualAttachBeforeIngest: postings built by the
// attach-time rebuild are identical to postings maintained write-time.
func TestRegionPlansAfterAttachEqualAttachBeforeIngest(t *testing.T) {
	rt := queryModel(t)
	rng := rand.New(rand.NewSource(99))
	trajs := randomCorpusTrajs(rng, 120)

	before := NewSharded(4)
	before.AttachRegions(rt)
	before.PutBatch(trajs)

	after := NewSharded(4)
	after.PutBatch(trajs)
	after.AttachRegions(rt)

	for _, q := range []Query{
		Region("Wing", "west"),
		Region("Wing", "east"),
		And(Region("Building", "campus"), HasAnnotation("activity", "1")),
		ThroughRegions(indoor.RegionRef{Layer: "Wing", ID: "west"}, indoor.RegionRef{Layer: "Wing", ID: "east"}),
	} {
		a, err := before.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := after.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if trajSig(a) != trajSig(b) {
			t.Fatalf("attach-order divergence on %#v", q)
		}
	}
}
