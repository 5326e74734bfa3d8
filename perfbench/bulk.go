package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/store"
)

const (
	// bulkScale sizes the bulk feed (×20 the paper's dataset: ~405 k
	// detections, ~109 k trajectories). It is fixed, not scaled to the
	// run length, because per-row ingest cost rises with store size.
	bulkScale = 20
	// bulkBodyRows is the detections per ingest request of the bulk feed.
	bulkBodyRows = 2000
	// ckptMarks is how many checkpoints run at evenly spaced acked-row
	// marks while the writers continue; one more follows the last ack.
	ckptMarks = 11
	// coldOpens is how many read-only opens of a finished dir a run
	// times at least.
	coldOpens = 11
)

// bulkFeed is the bulk feed as two MO-partitioned, time-ordered halves of
// ingest bodies, with the reference's answers.
type bulkFeed struct {
	halves [][]body
	counts [][]int // reference trajectories per body
	rows   int
	want   store.Summary // reference store summary after every body
}

// makeBulkFeed generates the bulk feed and ingests it into an in-memory
// reference store (half 0, then half 1), which it returns with the feed
// for query workloads to draw plans from.
func makeBulkFeed(seed int64) (*bulkFeed, *store.Store, []core.Detection, error) {
	feed, err := generateFeed(seed, bulkScale)
	if err != nil {
		return nil, nil, nil, err
	}
	bf := &bulkFeed{rows: len(feed)}
	ref := store.New()
	for _, half := range partitionByMO(feed, clients) {
		bodies, err := encodeBodies(half, bulkBodyRows)
		if err != nil {
			return nil, nil, nil, err
		}
		bf.halves = append(bf.halves, bodies)
		bf.counts = append(bf.counts, ingestBodies(ref, bodies))
	}
	bf.want = ref.Summarize()
	return bf, ref, feed, nil
}

// dropDetections releases the generator's detections, leaving only the
// encoded bodies, so the timed rounds run on a small harness heap.
func dropDetections(parts [][]body) {
	for _, p := range parts {
		for i := range p {
			p[i].dets = nil
		}
	}
}

// bulkRun accumulates the ingest cycles' measurements.
type bulkRun struct {
	acks      tally
	rowsPerS  samples
	ckptMs    samples
	openMs    samples
	diskPerRw samples
	heapPerTj samples
	openHeap  samples
	walBytes  int64 // WAL bytes compacted by checkpoints
	segBytes  int64 // segment bytes written by checkpoints
	rows      int64
}

// coldOpen times one read-only open of dir; the caller closes the store.
func coldOpen(dir string, run *bulkRun) (*store.Store, error) {
	t0 := time.Now()
	ro, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("cold open: %w", err)
	}
	run.openMs = append(run.openMs, durMs(time.Since(t0)))
	return ro, nil
}

// bulkCycle ingests the whole bulk feed into a fresh dir with two
// writers, checkpointing at fixed acked-row marks, then opens the
// finished dir cold and checks it. The ingest rate excludes the time the
// writers wait out a checkpoint.
func bulkCycle(dir string, bf *bulkFeed, rt *indoor.RegionTable, tr *tracer, rep *report, run *bulkRun) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	base := heapAfterGC()
	svc, err := startService(dir, store.Options{}, rt, nil)
	if err != nil {
		return err
	}
	st := svc.st

	// The writers hold gate shared per request; a checkpoint at a mark
	// takes it exclusively, so it runs once the requests in flight are
	// acked and alone, at a store size the mark fixes.
	var gate sync.RWMutex
	var acked, ackedTrajs atomic.Int64
	progress := make(chan struct{}, 1)
	tallies := make([]tally, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			bodies := bf.halves[c]
			for j, b := range bodies {
				var rows, trajs int
				gate.RLock()
				if tr == nil {
					t0 := time.Now()
					r := post(client, svc.url+"/v1/ingest", "text/csv", b.csv, nil)
					tallies[c].record(r.ok(), time.Since(t0))
					if r.ok() {
						ir, err := parseIngest(r.body)
						if err != nil {
							gate.RUnlock()
							errs[c] = err
							return
						}
						rows, trajs = ir.Rows, ir.Trajectories
						if !ir.Synced {
							rep.mismatch("ingest acked without synced: true")
						}
					}
				} else {
					t0 := time.Now()
					var err error
					rows, trajs, err = tracedIngest(tr, st, b, 10*j/len(bodies))
					tallies[c].record(err == nil, time.Since(t0))
				}
				gate.RUnlock()
				if rows == 0 {
					continue // failed: counted, nothing acked
				}
				if rows != b.rows || trajs != bf.counts[c][j] {
					rep.mismatch("ingest body %d/%d: acked %d rows / %d trajectories, reference %d / %d", c, j, rows, trajs, b.rows, bf.counts[c][j])
				}
				acked.Add(int64(rows))
				ackedTrajs.Add(int64(trajs))
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	checkpoint := func() error {
		ds, _ := st.Durability()
		t0 := time.Now()
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		run.ckptMs = append(run.ckptMs, durMs(time.Since(t0)))
		seg, err := dirBytes(filepath.Join(dir, "seg"))
		if err != nil {
			return err
		}
		run.walBytes += ds.WALBytes
		run.segBytes += seg
		return nil
	}
	var ckptErr error
	var paused time.Duration
	for k := 1; k <= ckptMarks && ckptErr == nil; k++ {
		mark := int64(bf.rows * k / (ckptMarks + 1))
	wait:
		for acked.Load() < mark {
			select {
			case <-progress:
			case <-writersDone:
				break wait
			}
		}
		gate.Lock()
		t0 := time.Now()
		ckptErr = checkpoint()
		paused += time.Since(t0)
		gate.Unlock()
	}
	<-writersDone
	elapsed := time.Since(start) - paused
	if ckptErr == nil {
		ckptErr = checkpoint()
	}
	for c := range clients {
		run.acks.add(&tallies[c])
		if ckptErr == nil {
			ckptErr = errs[c]
		}
	}
	if ckptErr != nil {
		svc.stop()
		return ckptErr
	}
	run.rows += acked.Load()
	run.rowsPerS = append(run.rowsPerS, float64(acked.Load())/elapsed.Seconds())

	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	run.diskPerRw = append(run.diskPerRw, float64(disk)/float64(acked.Load()))
	sum := st.Summarize()
	run.heapPerTj = append(run.heapPerTj, float64(heapAfterGC()-base)/float64(sum.Trajectories))
	if err := svc.stop(); err != nil {
		return err
	}

	// The oracle: a cold open must hold exactly what was acked, and what
	// the reference holds.
	base = heapAfterGC()
	ro, err := coldOpen(dir, run)
	if err != nil {
		return err
	}
	heap := heapAfterGC() - base
	got := ro.Summarize()
	if err := ro.Close(); err != nil {
		return err
	}
	run.openHeap = append(run.openHeap, float64(heap)/float64(got.Trajectories))
	if int64(got.Trajectories) != ackedTrajs.Load() || got != bf.want {
		rep.mismatch("cold open after ingest: %v, acked %d trajectories, reference %v", got, ackedTrajs.Load(), bf.want)
	}
	return nil
}

// tracedIngest sends one body through the ingest layers as timed calls,
// mirroring the server's ingest handler: parse the CSV, segment it with a
// request-scoped segmenter, PutBatch the trajectories in the ingestor's
// batches of 128, and Sync.
func tracedIngest(tr *tracer, st *store.Store, b body, tenth int) (rows, trajs int, err error) {
	rq := tr.begin("request")
	rq.meta = reqMeta{kind: "ingest", rows: b.rows, tenth: tenth}
	var dets []core.Detection
	rq.call("store.csv_parse", func(int64) {
		err = store.StreamDetectionsCSV(bytes.NewReader(b.csv), func(d core.Detection) error {
			dets = append(dets, d)
			return nil
		})
	})
	if err != nil {
		rq.finish()
		return 0, 0, err
	}
	var out []core.Trajectory
	rq.call("core.segment", func(int64) {
		seg := core.NewStreamSegmenter(core.StreamOptions{})
		for _, d := range dets {
			if t, ok := seg.Observe(d); ok {
				out = append(out, t)
			}
		}
		out = append(out, seg.Flush()...)
	})
	rq.call("store.put_batch", func(int64) {
		for lo := 0; lo < len(out); lo += 128 {
			st.PutBatch(out[lo:min(lo+128, len(out))])
		}
	})
	rq.call("wal.sync", func(int64) { err = st.Sync() })
	rq.finish()
	return len(dets), len(out), err
}
