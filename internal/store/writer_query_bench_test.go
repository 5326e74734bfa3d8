package store

// BenchmarkWriterQueryAfterCheckpoint measures the query path of a
// writable store whose rows are all checkpointed — the store a read-write
// sitmd serves /v1/query from after an explicit Checkpoint (the store
// never checkpoints on its own) — next to a read-only open of the same
// directory (the served replica). Rows the
// writer has committed are served from the SITMSEG2 blocks it wrote
// (DESIGN §3.12), so full-trajectory answers and CellDuring trace checks
// decode residual blocks through the block cache exactly as the reader's
// do.
//
// The corpus is the e7 set repeated for eight visitor populations
// (~96 k trajectories over 40 zones and 90 days, in arrival order), about
// perfbench's ~104 k, whose residual working set fits the default cache.
// The plans mirror perfbench's two workloads: "select" cycles CellDuring
// over one hour, one zone over one day and a three-zone sequence within
// one day (visitor ids only) and one visitor's trajectories (full
// answers); "broad" is one zone over a week, full trajectories and
// visitor ids. Each runs at the default cache budget and at a quarter of
// the residual working set, where most materializations miss. Every plan
// is compiled once, as the server's plan cache does. Besides ns/op the
// benchmark reports the block cache's misses and hits per query.
//
//	go test ./internal/store -run '^$' -bench WriterQueryAfterCheckpoint

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"sitm/internal/core"
)

// writerQueryPlan is one compiled-once query of the benchmark.
type writerQueryPlan struct {
	q       Query
	mosOnly bool
}

func writerQueryPlans(trajs []core.Trajectory) map[string][]writerQueryPlan {
	var sel, broad []writerQueryPlan
	for k := range 32 {
		zone := fmt.Sprintf("zone%02d", k%e7Zones)
		from := day.AddDate(0, 0, (k*7)%90)
		hour := from.Add(time.Duration(9+k%8) * time.Hour)
		t := trajs[(k*997)%len(trajs)]
		cells := t.Trace.Cells()
		tday := t.Start().UTC().Truncate(24 * time.Hour)
		sel = append(sel,
			writerQueryPlan{CellDuring(zone, hour, hour.Add(time.Hour)), true},
			writerQueryPlan{And(Cell(zone), TimeOverlap(from, from.AddDate(0, 0, 1))), true},
			writerQueryPlan{ByMO(t.MO), false},
			writerQueryPlan{And(Through(cells[:3]...), TimeOverlap(tday, tday.AddDate(0, 0, 1))), true})
		week := day.AddDate(0, 0, (k*5)%83)
		q := And(Cell(zone), TimeOverlap(week, week.AddDate(0, 0, 7)))
		broad = append(broad, writerQueryPlan{q, false}, writerQueryPlan{q, true})
	}
	return map[string][]writerQueryPlan{"select": sel, "broad": broad}
}

// writerQueryCopies is how many visitor populations the corpus repeats.
const writerQueryCopies = 8

func BenchmarkWriterQueryAfterCheckpoint(b *testing.B) {
	base := e7Trajectories(b)
	trajs := make([]core.Trajectory, 0, writerQueryCopies*len(base))
	for c := range writerQueryCopies {
		for _, t := range base {
			t.MO = fmt.Sprintf("%s.%d", t.MO, c)
			trajs = append(trajs, t)
		}
	}
	slices.SortStableFunc(trajs, func(a, b core.Trajectory) int { return a.Start().Compare(b.Start()) })
	plans := writerQueryPlans(trajs)

	// One fully checkpointed directory per cache budget: the writer stays
	// open beside a read-only open of the same files.
	ws := func() int64 {
		dir := b.TempDir()
		st := writerQueryStore(b, dir, 0, trajs)
		st.Close()
		ro, err := Open(dir, Options{ReadOnly: true, BlockCacheBytes: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		defer ro.Close()
		ro.All()
		bcs, _ := ro.BlockCacheStats()
		return bcs.Bytes
	}()
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"default", 0}, {"quarter", max(ws/4, 1)}} {
		dir := b.TempDir()
		w := writerQueryStore(b, dir, budget.bytes, trajs)
		r, err := Open(dir, Options{ReadOnly: true, BlockCacheBytes: budget.bytes})
		if err != nil {
			b.Fatal(err)
		}
		for _, side := range []struct {
			name string
			st   *Store
		}{{"writer", w}, {"reader", r}} {
			for _, shape := range []string{"select", "broad"} {
				b.Run(budget.name+"/"+side.name+"/"+shape, func(b *testing.B) {
					benchCompiledPlans(b, side.st, plans[shape])
				})
			}
		}
		r.Close()
		w.Close()
	}
}

// writerQueryStore opens a writable 2-shard store in dir, puts trajs and
// checkpoints them all.
func writerQueryStore(b *testing.B, dir string, cacheBytes int64, trajs []core.Trajectory) *Store {
	b.Helper()
	st, err := Open(dir, Options{Shards: 2, BlockCacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	st.PutBatch(trajs)
	if err := st.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return st
}

// benchCompiledPlans compiles plans once and runs them in turn, reporting
// the block cache traffic per query.
func benchCompiledPlans(b *testing.B, st *Store, plans []writerQueryPlan) {
	ctx := context.Background()
	cqs := make([]*CompiledQuery, len(plans))
	for i, p := range plans {
		cq, err := st.Compile(p.q)
		if err != nil {
			b.Fatal(err)
		}
		cqs[i] = cq
	}
	before, _ := st.BlockCacheStats()
	b.ResetTimer()
	for i := range b.N {
		var err error
		if p := i % len(plans); plans[p].mosOnly {
			_, err = st.SelectMOsCompiledCtx(ctx, cqs[p])
		} else {
			_, err = st.SelectCompiledCtx(ctx, cqs[p])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after, _ := st.BlockCacheStats()
	b.ReportMetric(float64(after.Misses-before.Misses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "hits/op")
}
