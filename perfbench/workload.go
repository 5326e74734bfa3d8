package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"sitm/internal/indoor"
	"sitm/internal/store"
)

// shape is what sets one workload apart. Every workload runs the same
// rounds, so each reports every metric. A round is an ingest cycle — the
// bulk feed posted into a fresh dir, checkpointed at fixed row marks, then
// opened cold — followed by a query slice of the same length: the finished
// dir served read-only and queried with the workload's plans. Alternating
// the two in short rounds spreads a slow spell of the shared machine over
// both kinds of metric instead of letting it land on one. The shape
// decides the plans and the block cache.
type shape struct {
	// broad selects query_broad's plans and a block cache of
	// broadCacheShare of the residual working set; otherwise the
	// selective plans run on the default (fitting) cache.
	broad bool
}

var workloads = map[string]shape{
	"query_select": {},
	"query_broad":  {broad: true},
}

// setupReps is how many times setup_s — a read-only open of the finished
// dir, attaching the regions, serving — is timed per round.
const setupReps = 2

// workload is one run's inputs and accumulated measurements.
type workload struct {
	cfg   config
	rep   *report
	bf    *bulkFeed
	rt    *indoor.RegionTable
	plans []*plan
	broad bool
	opts  store.Options // of the served read-only store
	setup samples
	// checked is set once the oracle's full pass has run.
	checked bool
}

// stages is what one pass of rounds measured.
type stages struct {
	ingest bulkRun
	query  queryRun
	cache  store.BlockCacheStats // replay stores' caches, traced pass only
}

func runWorkload(cfg config, rep *report, sh shape) error {
	t0 := time.Now()
	bf, ref, feed, err := makeBulkFeed(cfg.seed)
	if err != nil {
		return err
	}
	rt, err := louvreRegions()
	if err != nil {
		return err
	}
	ref.AttachRegions(rt)
	ps := newPlanSpace(cfg.seed, feed, rt, sampleTrajectories(ref, 256))
	var plans []*plan
	if sh.broad {
		plans, err = ps.broadPlans(broadPlans)
	} else {
		plans, err = ps.selectivePlans(selectPlans, len(ps.days))
	}
	if err != nil {
		return err
	}
	if err := expect(ref, plans); err != nil {
		return err
	}
	// Only the encoded bodies and plans outlive this point, so the timed
	// rounds run on a small harness heap.
	ref, feed, ps = nil, nil, nil
	dropDetections(bf.halves)
	runtime.GC()
	rep.note("input sha256 %s  bodies=%d+%d rows=%d trajectories=%d plans=%d  (generated in %.1fs)",
		hashInputs(bf.halves, plans), len(bf.halves[0]), len(bf.halves[1]), bf.rows, bf.want.Trajectories, len(plans), time.Since(t0).Seconds())

	w := &workload{cfg: cfg, rep: rep, bf: bf, rt: rt, plans: plans, broad: sh.broad, opts: store.Options{ReadOnly: true}}
	untraced, err := w.rounds(nil)
	if err != nil {
		return err
	}
	if !cfg.trace {
		rep.metric("setup_s", "s", w.setup.median(), len(w.setup), "read-only open + attach regions + serve")
		reportIngest(rep, &untraced.ingest)
		return reportQuery(rep, &untraced.query)
	}
	tr := newTracer()
	traced, err := w.rounds(tr)
	if err != nil {
		return err
	}
	v := newLayerView(tr)
	reportIngestLayers(rep, v, &untraced.ingest)
	reportQueryLayers(rep, v, &untraced.query)
	bcs := traced.cache
	rep.metric("store.block_cache_hit_ratio", "ratio", ratio(float64(bcs.Hits), float64(bcs.Hits+bcs.Misses)), int(bcs.Hits+bcs.Misses), "replay stores, traced query slices")
	rep.metric("store.block_cache_evictions_per_query", "count", ratio(float64(bcs.Evictions), float64(traced.query.q.attempted)), traced.query.q.attempted, "")
	reportTrace(rep, v, []stageRates{
		{"rows/s", untraced.ingest.rowsPerS.median(), traced.ingest.rowsPerS.median()},
		{"queries/s", untraced.query.rates.median(), traced.query.rates.median()},
	})
	return nil
}

// rounds runs rounds for --seconds (at least one) and returns what they
// measured. tr == nil is the untraced pass; otherwise ingest bodies go
// through timed calls to the ingest layers, and query requests are traced
// and replayed on a second read-only open of each round's dir, with its
// own block cache of the same budget, so the replay neither warms nor
// reads the served store's cache.
func (w *workload) rounds(tr *tracer) (*stages, error) {
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler { return tracedHandler{next: h, t: tr} }
	}
	out := &stages{}
	dir, err := w.cfg.scratchDir("round")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	// Rounds are whole: another starts only if one more of the last
	// round's length still fits.
	var last time.Duration
	for len(out.ingest.rowsPerS) == 0 || time.Since(start)+last <= w.cfg.seconds {
		t0 := time.Now()
		if err := bulkCycle(dir, w.bf, w.rt, tr, w.rep, &out.ingest); err != nil {
			return nil, err
		}
		cycle := time.Since(t0)
		if w.broad && w.opts.BlockCacheBytes == 0 {
			// The residual working set is a property of the feed, so it
			// is measured once, on the first finished dir.
			ws, err := residualWorkingSet(dir)
			if err != nil {
				return nil, err
			}
			w.opts.BlockCacheBytes = int64(float64(ws) * broadCacheShare)
			w.rep.note("residual working set %d B, block cache %d B", ws, w.opts.BlockCacheBytes)
		}
		if err := w.querySlice(dir, cycle, tr, wrap, out); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	w.rep.count(&out.ingest.acks)
	w.rep.count(&out.query.q)
	// Each cycle opened its dir cold once; the rest of the cold opens
	// reopen the last round's dir.
	for len(out.ingest.openMs) < coldOpens {
		ro, err := coldOpen(dir, &out.ingest)
		if err != nil {
			return nil, err
		}
		if err := ro.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// querySlice serves dir read-only — timing setupReps set-ups, the last of
// which it queries — warms it with one pass over the plans, and runs the
// query loop for d.
func (w *workload) querySlice(dir string, d time.Duration, tr *tracer, wrap func(http.Handler) http.Handler, out *stages) error {
	var svc *service
	for range setupReps {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		base := heapAfterGC()
		t0 := time.Now()
		var err error
		if svc, err = startService(dir, w.opts, w.rt, wrap); err != nil {
			return err
		}
		if tr == nil {
			w.setup = append(w.setup, time.Since(t0).Seconds())
			out.ingest.openHeap = append(out.ingest.openHeap, float64(heapAfterGC()-base)/float64(w.bf.want.Trajectories))
		}
	}
	if err := w.query(svc, dir, d, tr, out); err != nil {
		svc.stop()
		return err
	}
	return svc.stop()
}

func (w *workload) query(svc *service, dir string, d time.Duration, tr *tracer, out *stages) error {
	if err := warmUp(svc.url, w.plans, !w.checked, w.rep); err != nil {
		return err
	}
	w.checked = true
	if tr == nil {
		return queryPhase(d, w.rep, svc, w.plans, nil, nil, &out.query)
	}
	shadow, err := store.Open(dir, w.opts)
	if err != nil {
		return err
	}
	shadow.AttachRegions(w.rt)
	err = queryPhase(d, w.rep, svc, w.plans, tr, shadow, &out.query)
	bcs, _ := shadow.BlockCacheStats()
	out.cache.Hits += bcs.Hits
	out.cache.Misses += bcs.Misses
	out.cache.Evictions += bcs.Evictions
	if cerr := shadow.Close(); err == nil {
		err = cerr
	}
	return err
}

func reportIngest(rep *report, r *bulkRun) {
	rep.metric("ingest_rows_per_s", "1/s", r.rowsPerS.median(), len(r.rowsPerS), "median over cycles")
	rep.metric("ingest_ack_p50_ms", "ms", r.acks.latMs.median(), len(r.acks.latMs), "")
	rep.metric("checkpoint_p50_ms", "ms", r.ckptMs.median(), len(r.ckptMs), "")
	rep.metric("open_p50_ms", "ms", r.openMs.median(), len(r.openMs), "read-only cold open")
	rep.metric("disk_bytes_per_row", "B/row", r.diskPerRw.median(), len(r.diskPerRw), "")
	rep.metric("heap_bytes_per_traj", "B", r.heapPerTj.median(), len(r.heapPerTj), "writer store")
}

func reportQuery(rep *report, r *queryRun) error {
	rep.metric("query_per_s", "1/s", r.rates.median(), len(r.rates), fmt.Sprintf("median of %v windows", rateWindow))
	rep.metric("query_p50_ms", "ms", r.q.latMs.median(), len(r.q.latMs), "")
	p90, beyond, err := r.q.latMs.tail(0.90, 10)
	if err != nil {
		return fmt.Errorf("query_p90_ms: %w", err)
	}
	rep.metric("query_p90_ms", "ms", p90, len(r.q.latMs), fmt.Sprintf("%d samples beyond", beyond))
	if p99, beyond, err := r.q.latMs.tail(0.99, 10); err == nil {
		// The sub-millisecond p99 of the selective plans moved by a third
		// of its median from run to run, so it is printed, not reported.
		rep.note("query_p99_ms (not reported) %.4f ms, %d samples beyond", p99, beyond)
	}
	return nil
}
