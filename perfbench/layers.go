package main

import (
	"fmt"
	"strings"
	"time"
)

// layerView groups a traced pass's spans for the per-layer report.
type layerView struct {
	t      *tracer
	self   map[int64]time.Duration
	byName map[string][]span
}

func newLayerView(t *tracer) *layerView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := &layerView{t: t, self: selfTimes(t.spans), byName: map[string][]span{}}
	for _, s := range t.spans {
		v.byName[s.name] = append(v.byName[s.name], s)
	}
	return v
}

// durMs returns the durations in ms of the named spans whose request
// passes keep (nil keeps all).
func (v *layerView) durMs(name string, keep func(reqMeta) bool) samples {
	var out samples
	for _, s := range v.byName[name] {
		if keep == nil || keep(v.t.metas[s.req]) {
			out = append(out, durMs(s.dur()))
		}
	}
	return out
}

// rowsPerS is Σ rows / Σ time over the named spans of ingest requests
// passing keep.
func (v *layerView) rowsPerS(name string, keep func(reqMeta) bool) (float64, int) {
	var rows int
	var busy time.Duration
	n := 0
	for _, s := range v.byName[name] {
		m := v.t.metas[s.req]
		if m.kind == "ingest" && (keep == nil || keep(m)) {
			rows += m.rows
			busy += s.dur()
			n++
		}
	}
	if busy == 0 {
		return 0, 0
	}
	return float64(rows) / busy.Seconds(), n
}

// accounted is the share of the traced requests' wall time that layer
// spans cover by their self time; the rest is the benchmark's own
// bookkeeping between calls.
func (v *layerView) accounted() float64 {
	var wall, layers time.Duration
	for _, s := range v.t.spans {
		if s.parent == 0 {
			wall += s.dur()
		} else {
			layers += v.self[s.id]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(layers) / float64(wall)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportIngestLayers reports the per-layer ingest metrics: layer rates
// from the traced ingest cycles' spans, and bytes, heap and the ack tail
// from the untraced ones.
func reportIngestLayers(rep *report, v *layerView, untraced *bulkRun) {
	for _, l := range []struct{ metric, span string }{
		{"store.csv_parse_rows_per_s", "store.csv_parse"},
		{"core.segment_rows_per_s", "core.segment"},
		{"store.put_batch_rows_per_s", "store.put_batch"},
	} {
		r, n := v.rowsPerS(l.span, nil)
		rep.metric(l.metric, "1/s", r, n, "detections / busy time")
	}
	for _, l := range []struct {
		metric string
		tenth  int
	}{{"store.put_batch_first_tenth_rows_per_s", 0}, {"store.put_batch_last_tenth_rows_per_s", 9}} {
		r, n := v.rowsPerS("store.put_batch", func(m reqMeta) bool { return m.tenth == l.tenth })
		rep.metric(l.metric, "1/s", r, n, "")
	}
	sync := v.durMs("wal.sync", nil)
	rep.metric("wal.sync_p50_ms", "ms", sync.median(), len(sync), "Store.Sync")
	rep.metric("store.checkpoint_write_amp", "ratio", ratio(float64(untraced.segBytes), float64(untraced.walBytes)), len(untraced.ckptMs), "segment bytes written / WAL bytes compacted")
	rep.metric("wal.bytes_per_row", "B/row", ratio(float64(untraced.walBytes), float64(untraced.rows)), int(untraced.rows), "")
	rep.metric("store.writer_heap_bytes_per_traj", "B", untraced.heapPerTj.median(), len(untraced.heapPerTj), "")
	rep.metric("store.open_heap_bytes_per_traj", "B", untraced.openHeap.median(), len(untraced.openHeap), "read-only cold open")
	p99, beyond := untraced.acks.latMs.rank(0.99)
	rep.metric("server.ingest_ack_p99_ms", "ms", p99, len(untraced.acks.latMs), fmt.Sprintf("%d samples beyond", beyond))
}

// stageRates is one stage's rate untraced and traced.
type stageRates struct {
	unit             string
	untraced, traced float64
}

// reportTrace reports the trace's self-time accounting and the tracing
// overhead: how much longer the traced stages took per unit of work than
// the untraced ones (untraced rate ÷ traced rate − 1), averaged over the
// stages, which run for equal times.
func reportTrace(rep *report, v *layerView, stages []stageRates) {
	rep.metric("trace.accounted_frac", "share", v.accounted(), len(v.byName["request"]), "layer self time / traced request wall")
	var sum float64
	var note []string
	for _, s := range stages {
		sum += ratio(s.untraced, s.traced) - 1
		note = append(note, fmt.Sprintf("untraced %.1f vs traced %.1f %s", s.untraced, s.traced, s.unit))
	}
	rep.metric("trace.overhead_frac", "share", sum/float64(len(stages)), 2*len(stages), strings.Join(note, "; "))
}

// reqSpans returns each query request's span durations by name.
func (v *layerView) reqSpans() map[int64]map[string]time.Duration {
	out := map[int64]map[string]time.Duration{}
	for _, s := range v.t.spans {
		if v.t.metas[s.req].kind != "query" {
			continue
		}
		m := out[s.req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.req] = m
		}
		m[s.name] = s.dur()
	}
	return out
}

// reportQueryLayers reports the per-layer query metrics of the traced
// query slices, with the server's own counters from the untraced ones.
func reportQueryLayers(rep *report, v *layerView, untraced *queryRun) {
	isQuery := func(m reqMeta) bool { return m.kind == "query" }
	serve := v.durMs("server.serve", isQuery)
	rep.metric("server.serve_query_p50_ms", "ms", serve.median(), len(serve), "ServeHTTP into an httptest recorder")
	var self, transport samples
	for _, s := range v.byName["http.roundtrip"] {
		if isQuery(v.t.metas[s.req]) {
			transport = append(transport, durMs(v.self[s.id]))
		}
	}
	for req, m := range v.reqSpans() {
		d := m["server.serve"] - m["store.select"] - m["server.encode"]
		if !v.t.metas[req].cached {
			d -= m["store.compile"]
		}
		self = append(self, durMs(d))
	}
	rep.metric("server.query_self_p50_ms", "ms", self.median(), len(self), "serve minus replayed compile (uncached only), select, encode")
	rep.metric("http.transport_p50_ms", "ms", transport.median(), len(transport), "round trip minus ServeHTTP")
	enc := v.durMs("server.encode", isQuery)
	rep.metric("server.encode_p50_ms", "ms", enc.median(), len(enc), "")
	var bytes, rows samples
	for _, m := range v.t.metas {
		if m.kind == "query" {
			bytes = append(bytes, float64(m.respBytes))
			rows = append(rows, float64(m.results))
		}
	}
	rep.metric("server.response_bytes_p50", "B", bytes.median(), len(bytes), "")
	rep.metric("store.rows_per_query", "count", rows.mean(), len(rows), "mean")
	comp := v.durMs("store.compile", isQuery)
	rep.metric("store.compile_p50_ms", "ms", comp.median(), len(comp), "")
	sel := v.durMs("store.select", isQuery)
	rep.metric("store.select_p50_ms", "ms", sel.median(), len(sel), "")

	sc := untraced.server
	rep.metric("server.plan_cache_hit_ratio", "ratio", ratio(float64(sc.hits), float64(sc.hits+sc.misses)), int(sc.hits+sc.misses), "untraced query slices")
	arrivals := float64(sc.admitted + sc.shed)
	rep.metric("server.admission_queued_frac", "share", ratio(float64(sc.queued), arrivals), int(arrivals), "untraced query slices")
	rep.metric("server.shed_frac", "share", ratio(float64(sc.shed), arrivals), int(arrivals), "untraced query slices")
}
