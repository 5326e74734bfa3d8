package server

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/ingest"
	"sitm/internal/louvre"
	"sitm/internal/simulate"
	"sitm/internal/store"
)

// broadBench is BenchmarkQueryReplyBroad's input, built once per process:
// the trajectories of a ×20 Louvre feed (perfbench's generator and
// scale) and the Louvre regions.
var broadBench broadBenchData

type broadBenchData struct {
	once     sync.Once
	trajs    []core.Trajectory
	rt       *indoor.RegionTable
	from, to time.Time // the feed's window
	err      error
}

func broadBenchInput() *broadBenchData {
	bb := &broadBench
	bb.once.Do(func() {
		sg, h, err := louvre.Build()
		if err != nil {
			bb.err = err
			return
		}
		if bb.rt, bb.err = indoor.CompileRegions(sg, h); bb.err != nil {
			return
		}
		p := simulate.DefaultParams()
		bb.from, bb.to = p.Start, p.End
		const scale = 20
		p.Visitors, p.ReturningVisitors, p.RepeatVisits, p.TargetDetections =
			p.Visitors*scale, p.ReturningVisitors*scale, p.RepeatVisits*scale, p.TargetDetections*scale
		d, _, err := simulate.GenerateLouvre(p)
		if err != nil {
			bb.err = err
			return
		}
		ing := ingest.New(store.NewSharded(2), ingest.Options{})
		ing.ObserveAll(d.DetectionsByTime())
		ing.Flush()
		bb.trajs = ing.Store().All()
	})
	return bb
}

// BenchmarkQueryReplyBroad attributes a broad /v1/query reply — one
// wing over one week, perfbench's query_broad shape — to its two halves,
// reported per returned row:
//
//   - decode: Store.SelectRowsCompiledCtx — zone pruning, postings, and
//     the block cache, whose misses decode block columns;
//   - encode: writeQueryReply of those rows.
//
// The rows live in a checkpointed 2-shard directory served read-only with
// a block cache a quarter of its working set, and every iteration moves
// to another (wing, week), so most blocks miss as in query_broad.
func BenchmarkQueryReplyBroad(b *testing.B) {
	bb := broadBenchInput()
	if bb.err != nil {
		b.Fatal(bb.err)
	}
	trajs, rt := bb.trajs, bb.rt
	dir := b.TempDir()
	w, err := store.Open(dir, store.Options{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	w.PutBatch(trajs)
	if err := w.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	full, err := store.Open(dir, store.Options{ReadOnly: true, BlockCacheBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	full.All()
	ws, _ := full.BlockCacheStats()
	full.Close()
	st, err := store.Open(dir, store.Options{ReadOnly: true, BlockCacheBytes: ws.Bytes / 4})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.AttachRegions(rt)

	var wings []string
	for i := range int32(rt.NumRegions()) {
		if ref := rt.Ref(i); ref.Layer == louvre.LayerWing {
			wings = append(wings, ref.ID)
		}
	}
	var plans []*store.CompiledQuery
	for day := bb.from; day.Before(bb.to); day = day.AddDate(0, 0, 7) {
		for _, wing := range wings {
			cq, err := st.Compile(store.And(store.Region(louvre.LayerWing, wing), store.TimeOverlap(day, day.AddDate(0, 0, 7))))
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, cq)
		}
	}

	ctx := context.Background()
	var decode, encode struct {
		ns            time.Duration
		bytes, allocs uint64
	}
	var m0, m1, m2 runtime.MemStats
	rows := 0
	b.ResetTimer()
	for i := range b.N {
		cq := plans[i%len(plans)]
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rs, err := st.SelectRowsCompiledCtx(ctx, cq)
		t1 := time.Now()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		t2 := time.Now()
		if _, err := writeQueryReply(io.Discard, false, nil, rs); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		runtime.ReadMemStats(&m2)
		decode.ns += t1.Sub(t0)
		decode.bytes += m1.TotalAlloc - m0.TotalAlloc
		decode.allocs += m1.Mallocs - m0.Mallocs
		encode.ns += t3.Sub(t2)
		encode.bytes += m2.TotalAlloc - m1.TotalAlloc
		encode.allocs += m2.Mallocs - m1.Mallocs
		rows += rs.Len()
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("no plan returned a row")
	}
	n := float64(rows)
	b.ReportMetric(n/float64(b.N), "rows/op")
	b.ReportMetric(float64(decode.ns.Nanoseconds())/n, "decode-ns/row")
	b.ReportMetric(float64(decode.bytes)/n, "decode-B/row")
	b.ReportMetric(float64(decode.allocs)/n, "decode-allocs/row")
	b.ReportMetric(float64(encode.ns.Nanoseconds())/n, "encode-ns/row")
	b.ReportMetric(float64(encode.bytes)/n, "encode-B/row")
	b.ReportMetric(float64(encode.allocs)/n, "encode-allocs/row")
}
