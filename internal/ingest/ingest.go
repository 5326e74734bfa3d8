// Package ingest is the live ingestion engine: it wires the online
// StreamSegmenter (internal/core) to the sharded trajectory store
// (internal/store) so a raw detection feed — a BLE positioning
// stream, a CSV file, a simulator in stream-emission mode — becomes a
// queryable store while the feed is still running. Trajectories enter the
// store the moment their session closes, in batches that amortize locking
// (store.PutBatch); temporal queries against the store interleave freely
// with ingestion and never pay a rebuild.
package ingest

import (
	"sync"
	"time"

	"sitm/internal/core"
	"sitm/internal/store"
)

// Options tune an Ingestor.
type Options struct {
	// Stream configures the online segmenter (build options, gap
	// annotation, episode extraction, interval/episode callbacks).
	Stream core.StreamOptions
	// BatchSize is how many closed trajectories are buffered before one
	// PutBatch flushes them into the store (amortizing the write lock).
	// 0 defaults to 128; 1 writes through.
	BatchSize int
	// Shards is the shard count of the store New creates when handed a
	// nil store (0 = the store default, GOMAXPROCS). Ignored when the
	// caller supplies its own store.
	Shards int
}

// Stats report what an Ingestor has processed so far.
type Stats struct {
	core.BuildStats
	// Stored is how many closed trajectories have reached the store;
	// Pending is how many are buffered awaiting the next batch flush.
	Stored  int
	Pending int
}

// Ingestor pumps a detection stream into a trajectory store. It is safe
// for concurrent use: Observe calls from multiple feed goroutines are
// serialized internally, and the underlying store can be queried
// concurrently at any time.
type Ingestor struct {
	mu      sync.Mutex
	st      *store.Store
	seg     *core.StreamSegmenter
	batch   int
	pending []core.Trajectory
	stored  int
}

// New returns an Ingestor feeding st (a fresh store when nil, sharded per
// opts.Shards).
func New(st *store.Store, opts Options) *Ingestor {
	if st == nil {
		st = store.NewSharded(opts.Shards)
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 128
	}
	return &Ingestor{
		st:    st,
		seg:   core.NewStreamSegmenter(opts.Stream),
		batch: batch,
	}
}

// Observe consumes one detection; any trajectory it closes is queued and,
// once a full batch accumulates, written to the store with one PutBatch.
func (ing *Ingestor) Observe(d core.Detection) {
	ing.mu.Lock()
	ing.observeLocked(d)
	ing.mu.Unlock()
}

// ObserveAll consumes a chunk of detections under one lock acquisition.
func (ing *Ingestor) ObserveAll(dets []core.Detection) {
	ing.mu.Lock()
	for _, d := range dets {
		ing.observeLocked(d)
	}
	ing.mu.Unlock()
}

func (ing *Ingestor) observeLocked(d core.Detection) {
	if t, ok := ing.seg.Observe(d); ok {
		ing.pending = append(ing.pending, t)
		if len(ing.pending) >= ing.batch {
			ing.flushPendingLocked()
		}
	}
}

// MarkEvent forwards a §3.3 semantic event to the segmenter: when the
// session containing at closes, the interval covering at is split there
// and the second part carries the after annotations.
func (ing *Ingestor) MarkEvent(mo string, at time.Time, after core.Annotations) {
	ing.mu.Lock()
	ing.seg.MarkEvent(mo, at, after)
	ing.mu.Unlock()
}

// Flush closes every open session and writes everything still pending to
// the store. Call at end of feed (or at a checkpoint: flushing mid-feed is
// safe, later detections simply start new sessions).
func (ing *Ingestor) Flush() {
	ing.mu.Lock()
	ing.pending = append(ing.pending, ing.seg.Flush()...)
	ing.flushPendingLocked()
	ing.mu.Unlock()
}

func (ing *Ingestor) flushPendingLocked() {
	if len(ing.pending) == 0 {
		return
	}
	ing.st.PutBatch(ing.pending)
	ing.stored += len(ing.pending)
	ing.pending = nil
}

// Store returns the underlying store; it may be queried concurrently with
// ingestion (trajectories become visible when their session closes and the
// batch they rode flushes).
func (ing *Ingestor) Store() *store.Store { return ing.st }

// Stats returns running ingestion statistics.
func (ing *Ingestor) Stats() Stats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return Stats{
		BuildStats: ing.seg.Stats(),
		Stored:     ing.stored,
		Pending:    len(ing.pending),
	}
}
