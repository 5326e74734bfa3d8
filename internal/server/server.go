// Package server is the sitm serving layer (DESIGN.md §3.11): an HTTP
// daemon exposing the semantic query engine and the live ingestion feed
// over a durable store, engineered to degrade predictably rather than
// collapse. Overload is shed at admission (429 + Retry-After) instead of
// queueing unboundedly; every request runs under a deadline that
// propagates through the parallel shard scans; writes are acknowledged
// only after the store reports them durable; and shutdown is a drain —
// stop admitting, finish what is in flight, then Sync + Checkpoint +
// Close so a restart replays nothing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sitm/internal/core"
	"sitm/internal/ingest"
	"sitm/internal/retry"
	"sitm/internal/store"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving-grade default applied by New.
type Config struct {
	// ReadConcurrency / WriteConcurrency bound how many query / ingest
	// requests execute simultaneously (admission slots). Defaults: 8 / 2.
	ReadConcurrency  int
	WriteConcurrency int
	// QueueDepth bounds how many requests per class may wait behind the
	// slots before new arrivals are shed with 429. Default: 16.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends
	// none; MaxTimeout clamps client-requested deadlines (X-Sitm-Timeout,
	// milliseconds). Defaults: 5s / 30s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter seeds the Retry-After hint on shed and draining
	// responses. Default: 1s.
	RetryAfter time.Duration
	// PlanCacheSize caps the compiled-plan cache (entries). 0 defaults to
	// 256; negative disables caching (every query compiles fresh).
	PlanCacheSize int
	// Retry governs retries around transient durable-store failures
	// (checkpoint commits). The zero value is the retry package default.
	Retry retry.Policy

	// BatchSize is forwarded to the per-request ingestors. Default 128.
	BatchSize int

	// testDelay, when set (white-box tests only), is slept inside each
	// query request's slot — a deterministic way to saturate admission.
	testDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.ReadConcurrency <= 0 {
		c.ReadConcurrency = 8
	}
	if c.WriteConcurrency <= 0 {
		c.WriteConcurrency = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	return c
}

// Server serves one store over HTTP. Create with New, mount as an
// http.Handler, and call Drain exactly once on the way out.
type Server struct {
	st    *store.Store
	cfg   Config
	reads *admitClass
	write *admitClass
	cache *planCache // nil when caching is disabled

	// The drain handshake: a request registers with inflight while
	// holding drainMu.RLock and the draining flag is false; Drain flips
	// the flag under drainMu.Lock before waiting, so every registration
	// strictly precedes the Wait and no Add can race it.
	// (inflight.Done and .Wait intentionally run outside drainMu — only
	// the Add-vs-flag decision needs the lock.)
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	finalizeOnce sync.Once
	finalizeErr  error

	mux *http.ServeMux
}

// New wraps st in a Server. The store stays owned by the caller until
// Drain, which closes it.
func New(st *store.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		st:    st,
		cfg:   cfg,
		reads: newAdmitClass("read", cfg.ReadConcurrency, cfg.QueueDepth),
		write: newAdmitClass("write", cfg.WriteConcurrency, cfg.QueueDepth),
	}
	if cfg.PlanCacheSize > 0 {
		s.cache = newPlanCache(cfg.PlanCacheSize)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.guard(s.reads, s.handleQuery))
	mux.HandleFunc("POST /v1/ingest", s.guard(s.write, s.handleIngest))
	mux.HandleFunc("GET /v1/stats", s.guard(s.reads, s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errNotFound(r.URL.Path))
	})
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// guard is the request spine every API endpoint runs through, in order:
// drain check, in-flight registration (re-checked after registration so
// Drain cannot miss a racing request), deadline derivation, admission.
// The handler itself only sees admitted, deadline-bearing requests.
func (s *Server) guard(class *admitClass, fn func(http.ResponseWriter, *http.Request) *apiError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.drainMu.RLock()
		admitted := !s.draining.Load()
		if admitted {
			s.inflight.Add(1)
		}
		s.drainMu.RUnlock()
		if !admitted {
			writeError(w, errDraining(s.cfg.RetryAfter))
			return
		}
		defer s.inflight.Done()

		ctx, cancel := context.WithTimeout(r.Context(), s.deadline(r))
		defer cancel()
		release, aerr := class.admit(ctx, s.cfg.RetryAfter)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		defer release()

		if err := fn(w, r.WithContext(ctx)); err != nil {
			writeError(w, err)
		}
	}
}

// deadline resolves the request's time budget: X-Sitm-Timeout (integer
// milliseconds) clamped to MaxTimeout, else DefaultTimeout.
func (s *Server) deadline(r *http.Request) time.Duration {
	h := r.Header.Get("X-Sitm-Timeout")
	if h == "" {
		return s.cfg.DefaultTimeout
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// queryRequest is the body of POST /v1/query; writeQueryReply (encode.go)
// writes its reply.
type queryRequest struct {
	Query   json.RawMessage `json:"query"`
	MOsOnly bool            `json:"mos_only"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) *apiError {
	var req queryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return errBadRequest("body: %v", err)
	}
	if len(req.Query) == 0 {
		return errBadRequest("missing \"query\"")
	}
	q, fp, err := decodeQuery(req.Query)
	if err != nil {
		return errBadRequest("%v", err)
	}

	if s.cfg.testDelay > 0 {
		select {
		case <-time.After(s.cfg.testDelay):
		case <-r.Context().Done():
			return errDeadline("during query execution")
		}
	}

	cq, cached, aerr := s.plan(q, fp)
	if aerr != nil {
		return aerr
	}

	var mos []string
	var rows *store.Rows
	if req.MOsOnly {
		mos, err = s.st.SelectMOsCompiledCtx(r.Context(), cq)
	} else {
		rows, err = s.st.SelectRowsCompiledCtx(r.Context(), cq)
	}
	if err != nil {
		return selectionError(err)
	}
	w.Header().Set("Content-Type", "application/json")
	flushed, err := writeQueryReply(w, cached, mos, rows)
	if err != nil {
		if flushed {
			// Part of the reply is on the wire: returning normally would
			// end it as if complete, so abort the connection instead.
			panic(http.ErrAbortHandler)
		}
		return errInternal(fmt.Errorf("encode reply: %w", err))
	}
	return nil
}

// plan resolves the compiled plan for (q, fp): cache hit when present and
// still valid for the store's current snapshots, else a fresh compile
// (cached for the next request). With caching disabled it always
// compiles — the degraded mode the cache must be equivalent to.
func (s *Server) plan(q store.Query, fp string) (*store.CompiledQuery, bool, *apiError) {
	if s.cache != nil {
		if cq := s.cache.get(s.st, fp); cq != nil {
			return cq, true, nil
		}
	}
	cq, err := s.st.Compile(q)
	if err != nil {
		return nil, false, errBadRequest("compile: %v", err)
	}
	if s.cache != nil {
		s.cache.put(fp, cq)
	}
	return cq, false, nil
}

// selectionError maps a Select*Ctx failure: context expiry is the
// request's deadline, anything else is internal.
func selectionError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errDeadline("during query execution")
	}
	return errInternal(err)
}

// ingestResponse is the reply of POST /v1/ingest. Synced is always true
// on a 2xx: rows are acknowledged only after the store reports them
// durable (on an in-memory store Sync is trivially satisfied).
type ingestResponse struct {
	Rows         int  `json:"rows"`
	Trajectories int  `json:"trajectories"`
	Synced       bool `json:"synced"`
}

// handleIngest consumes a detections CSV body (mo,cell,start,end) through
// a request-scoped ingestor. Sessions do not span requests: the final
// Flush closes every session the body opened, so a request is a batch.
// The 2xx acknowledgement is written only after Sync succeeds — a client
// that never sees the ack may lose those rows on a crash, a client that
// does never will (E10's loss oracle is exactly this contract).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) *apiError {
	if s.st.ReadOnly() {
		return errReadOnly()
	}
	ing := ingest.New(s.st, ingest.Options{BatchSize: s.cfg.BatchSize})
	ctx := r.Context()
	rows := 0
	err := store.StreamDetectionsCSV(io.LimitReader(r.Body, 64<<20), func(d core.Detection) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ing.Observe(d)
		rows++
		return nil
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// Nothing observed so far was flushed or synced, so nothing
			// is acknowledged; dropping the partial batch is safe.
			return errDeadline("while reading the ingest body")
		}
		return errBadRequest("%v", err)
	}
	ing.Flush()
	stats := ing.Stats()

	// The ack gate. Sync failures are sticky (the WAL wedged), so retry
	// only fires for errors the store explicitly marked transient.
	if err := retry.Do(ctx, s.cfg.Retry, func(int) error { return s.st.Sync() }); err != nil {
		return errDurability(err)
	}
	return writeJSON(w, &ingestResponse{Rows: rows, Trajectories: stats.Stored, Synced: true})
}

// statsResponse is the reply of GET /v1/stats.
type statsResponse struct {
	Store struct {
		Trajectories int  `json:"trajectories"`
		MOs          int  `json:"mos"`
		Cells        int  `json:"cells"`
		Intervals    int  `json:"intervals"`
		ReadOnly     bool `json:"read_only"`
	} `json:"store"`
	Admission struct {
		Read  admitStats `json:"read"`
		Write admitStats `json:"write"`
	} `json:"admission"`
	PlanCache  *cacheStats            `json:"plan_cache,omitempty"`
	BlockCache *store.BlockCacheStats `json:"block_cache,omitempty"`
	Draining   bool                   `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) *apiError {
	sum := s.st.Summarize()
	var resp statsResponse
	resp.Store.Trajectories = sum.Trajectories
	resp.Store.MOs = sum.MOs
	resp.Store.Cells = sum.Cells
	resp.Store.Intervals = sum.Intervals
	resp.Store.ReadOnly = s.st.ReadOnly()
	resp.Admission.Read = s.reads.stats()
	resp.Admission.Write = s.write.stats()
	if s.cache != nil {
		cs := s.cache.stats()
		resp.PlanCache = &cs
	}
	if bcs, ok := s.st.BlockCacheStats(); ok {
		resp.BlockCache = &bcs
	}
	resp.Draining = s.draining.Load()
	return writeJSON(w, &resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining(s.cfg.RetryAfter))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain is graceful shutdown: stop admitting (new requests get 503
// draining), wait for in-flight requests under ctx, then finalize the
// store — Sync, Checkpoint (retried: checkpoint commits fail before the
// manifest rename, so the WALs stay authoritative and a retry is safe),
// Close. Finalization runs exactly once even if Drain is called twice or
// the in-flight wait times out; a timeout abandons the stragglers but
// still flushes what completed, so every acknowledged write is on disk.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("server: drain: in-flight requests outlasted the deadline: %w", ctx.Err())
	}

	s.finalizeOnce.Do(func() {
		var errs []error
		if err := s.st.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("sync: %w", err))
		}
		if !s.st.ReadOnly() {
			// Deliberately not ctx: even when the in-flight wait timed
			// out, finalization still makes its (attempt-bounded) best
			// effort to persist — the retry budget, not the drain
			// deadline, caps how long that takes.
			if err := retry.Do(context.Background(), s.cfg.Retry, func(int) error { return s.st.Checkpoint() }); err != nil {
				// A failed checkpoint is not data loss: the synced WALs
				// remain the source of truth for the next open.
				errs = append(errs, fmt.Errorf("checkpoint: %w", err))
			}
		}
		if err := s.st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close: %w", err))
		}
		s.finalizeErr = errors.Join(errs...)
	})
	return errors.Join(waitErr, s.finalizeErr)
}

// writeJSON renders a 200 with body v, or an internal error if v does not
// encode. The body is encoded before anything is written, so a failure
// still gets its error envelope.
func writeJSON(w http.ResponseWriter, v any) *apiError {
	b, err := json.Marshal(v)
	if err != nil {
		return errInternal(err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n')) // a failed write means the client is gone; nothing is left to tell it
	return nil
}
