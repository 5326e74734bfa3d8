package main

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; the request's root span has parent 0.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// reqMeta describes one traced request, for grouping its spans.
type reqMeta struct {
	kind      string // "ingest" or "query"
	rows      int    // detections in an ingest body
	tenth     int    // which tenth of its writer's feed an ingest body is in
	cached    bool   // the server answered a query from its plan cache
	respBytes int    // bytes of the query reply
	results   int    // rows a query returned
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	metas map[int64]reqMeta
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), metas: map[int64]reqMeta{}} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reqTrace builds the spans of one request on the client goroutine.
type reqTrace struct {
	t     *tracer
	req   int64
	root  span
	spans []span
	meta  reqMeta
}

func (t *tracer) begin(name string) *reqTrace {
	id := t.newID()
	return &reqTrace{t: t, req: id, root: span{name: name, id: id, req: id, start: t.now()}}
}

// call times fn as a child of the root span; fn gets the child's id so it
// can pass it on as the parent of spans recorded elsewhere.
func (r *reqTrace) call(name string, fn func(id int64)) {
	s := span{name: name, id: r.t.newID(), parent: r.root.id, req: r.req, start: r.t.now()}
	fn(s.id)
	s.end = r.t.now()
	r.spans = append(r.spans, s)
}

func (r *reqTrace) finish() {
	r.root.end = r.t.now()
	r.t.mu.Lock()
	r.t.spans = append(append(r.t.spans, r.spans...), r.root)
	r.t.metas[r.req] = r.meta
	r.t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other; the covered
// part is the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.id]
		sort.Slice(ks, func(i, j int) bool { return ks[i].start < ks[j].start })
		var covered time.Duration
		cur := s.start // everything before cur is already counted
		for _, k := range ks {
			lo, hi := max(k.start, cur), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.id] = s.dur() - covered
	}
	return out
}

// Headers carrying a traced request's identity to the serving side.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// tracedHandler records the server's ServeHTTP as a span: it serves a
// traced request into an httptest recorder (so the span excludes the
// socket write) and then copies the recorded response to the connection.
// Untraced requests pass straight through.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	if req == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	rec := httptest.NewRecorder()
	s := span{name: "server.serve", id: h.t.newID(), parent: parent, req: req, start: h.t.now()}
	h.next.ServeHTTP(rec, r)
	s.end = h.t.now()
	h.t.add(s)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}
