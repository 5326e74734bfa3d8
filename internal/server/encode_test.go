package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/louvre"
	"sitm/internal/simulate"
	"sitm/internal/store"
)

// queryResponse is the reply of POST /v1/query as a Go value: the decode
// target of the tests, and — through encoding/json — the reference the
// reply encoder must match byte for byte.
type queryResponse struct {
	Count        int               `json:"count"`
	Cached       bool              `json:"cached"`
	MOs          []string          `json:"mos,omitempty"`
	Trajectories []core.Trajectory `json:"trajectories,omitempty"`
}

// referenceReply is the reply as encoding/json renders queryResponse.
func referenceReply(cached bool, mos []string, trajs []core.Trajectory) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&queryResponse{Count: len(mos) + len(trajs), Cached: cached, MOs: mos, Trajectories: trajs})
	return buf.Bytes(), err
}

// encodedReply is the reply as the server's encoder writes it.
func encodedReply(cached bool, mos []string, trajs []core.Trajectory) ([]byte, error) {
	var buf bytes.Buffer
	_, err := writeQueryReply(&buf, cached, mos, store.RowsOf(trajs))
	return buf.Bytes(), err
}

// louvreServer serves an in-memory store holding the Louvre dataset
// ingested over HTTP, the Louvre regions, and a few hand-made trajectories
// with the annotation shapes ingestion never produces.
func louvreServer(t *testing.T) (*store.Store, *indoor.RegionTable, *httptest.Server) {
	t.Helper()
	sg, h, err := louvre.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := indoor.CompileRegions(sg, h)
	if err != nil {
		t.Fatal(err)
	}
	p := simulate.DefaultParams()
	p.Visitors, p.ReturningVisitors, p.RepeatVisits, p.TargetDetections = 400, 150, 200, 2500
	d, _, err := simulate.GenerateLouvre(p)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := store.WriteDetectionsCSV(&csv, d.DetectionsByTime()); err != nil {
		t.Fatal(err)
	}
	st := store.NewSharded(2)
	st.AttachRegions(rt)
	_, ts := newTestServer(t, st, Config{})
	if code, env := postJSON(t, ts.URL+"/v1/ingest", "text/csv", csv.String(), nil); code != 200 {
		t.Fatalf("ingest = %d %+v", code, env)
	}

	// Hand-made rows: transitions, interval and transition annotations,
	// several keys, nil and empty value slices, non-UTC zones, sub-second
	// times, and strings that need escaping.
	cells := []string{d.Detections()[0].Cell, d.Detections()[1].Cell}
	paris := time.FixedZone("CEST", 2*3600)
	at := time.Date(2017, 3, 1, 10, 0, 0, 123456789, paris)
	for i, mo := range []string{"guide<1>", "guide&\u2028", "guide\xff\"2\""} {
		tr := core.Trace{
			{Cell: cells[0], Start: at, End: at.Add(time.Minute), Ann: core.NewAnnotations("activity", "guided-tour", "note", "a\tb")},
			{Transition: "door<" + cells[0] + ">", Cell: cells[1], Start: at.Add(2 * time.Minute), End: at.Add(3 * time.Minute),
				Ann: core.Annotations{"empty": {}, "nil": nil}, TransitionAnn: core.NewAnnotations("via", "stairs\u2029")},
		}
		traj, err := core.NewTrajectory(mo, tr, core.NewAnnotations("activity", "guided-tour", "visit", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		st.Put(traj)
		at = at.Add(time.Hour)
	}
	return st, rt, ts
}

// queryOperators are the node keys of the query JSON (queryjson.go).
var queryOperators = []string{"cell", "region", "time_overlap", "by_mo", "has_annotation", "through", "through_regions", "cell_during", "and", "or"}

func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	st, rt, ts := louvreServer(t)
	all := st.All()
	first := all[slices.IndexFunc(all, func(tr core.Trajectory) bool { return len(tr.Trace.Cells()) >= 2 })]
	cells := first.Trace.Cells()
	wing, _ := rt.AncestorAt(cells[0], louvre.LayerWing)
	floor, _ := rt.AncestorAt(cells[0], louvre.LayerFloor)
	var lo, hi time.Time
	for _, tr := range all {
		if s := tr.Start(); lo.IsZero() || s.Before(lo) {
			lo = s
		}
		if e := tr.End(); e.After(hi) {
			hi = e
		}
	}
	span := func(from, to time.Time) string {
		return fmt.Sprintf(`"from":%q,"to":%q`, from.Format(time.RFC3339Nano), to.Format(time.RFC3339Nano))
	}
	day := first.Start().Truncate(24 * time.Hour)
	plans := []string{
		fmt.Sprintf(`{"cell":%q}`, cells[0]),
		fmt.Sprintf(`{"region":{"layer":%q,"id":%q}}`, louvre.LayerWing, wing),
		fmt.Sprintf(`{"time_overlap":{%s}}`, span(lo, hi)), // the whole store
		fmt.Sprintf(`{"time_overlap":{%s}}`, span(day, day.Add(24*time.Hour))),
		fmt.Sprintf(`{"by_mo":%q}`, first.MO),
		`{"has_annotation":{"key":"activity","value":"guided-tour"}}`,
		fmt.Sprintf(`{"through":[%q,%q]}`, cells[0], cells[1]),
		fmt.Sprintf(`{"through_regions":[{"layer":%q,"id":%q},{"layer":%q,"id":%q}]}`, louvre.LayerWing, wing, louvre.LayerFloor, floor),
		fmt.Sprintf(`{"cell_during":{"cell":%q,%s}}`, cells[0], span(day, day.Add(24*time.Hour))),
		fmt.Sprintf(`{"and":[{"region":{"layer":%q,"id":%q}},{"time_overlap":{%s}}]}`, louvre.LayerFloor, floor, span(day, day.Add(7*24*time.Hour))),
		fmt.Sprintf(`{"or":[{"cell":%q},{"by_mo":"guide<1>"}]}`, cells[len(cells)-1]),
		`{"cell":"no-such-cell"}`, // empty answer
	}
	for _, op := range queryOperators {
		if !slices.ContainsFunc(plans, func(p string) bool { return strings.Contains(p, `"`+op+`":`) }) {
			t.Fatalf("no plan exercises operator %q", op)
		}
	}

	var sawEmpty, sawMulti, sawMOs bool
	for _, plan := range plans {
		q, _, err := decodeQuery([]byte(plan))
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		trajs, err := st.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		mos, err := st.SelectMOs(q)
		if err != nil {
			t.Fatal(err)
		}
		// The first request compiles the plan; the repeats hit the cache.
		for i, mosOnly := range []bool{false, false, true, true} {
			want, err := referenceReply(i > 0, mos, nil)
			if !mosOnly {
				want, err = referenceReply(i > 0, nil, trajs)
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(fmt.Sprintf(`{"query":%s,"mos_only":%t}`, plan, mosOnly)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q", plan, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (mos_only %t, request %d): reply differs from encoding/json at byte %d of %d/%d",
					plan, mosOnly, i, firstDiff(got, want), len(got), len(want))
			}
			sawEmpty = sawEmpty || len(mos) == 0
			sawMulti = sawMulti || len(got) > 2*replyChunk
			sawMOs = sawMOs || (mosOnly && len(mos) > 0)
		}
	}
	if !sawEmpty || !sawMulti || !sawMOs {
		t.Fatalf("coverage: empty answer %t, multi-chunk reply %t, MO-only reply %t", sawEmpty, sawMulti, sawMOs)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// farFuture is a time Time.MarshalJSON rejects (year outside [0,9999]).
var farFuture = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)

func TestQueryReplyEncodeErrorBeforeFlushIs500(t *testing.T) {
	st := store.NewSharded(1)
	bad := mkServerTraj(t, "mo-bad", "hall")
	bad.Trace[0].End = farFuture
	st.Put(bad)
	st.Put(mkServerTraj(t, "mo-good", "hall"))
	_, ts := newTestServer(t, st, Config{})

	code, env := postJSON(t, ts.URL+"/v1/query", "application/json", `{"query": {"cell": "hall"}}`, nil)
	if code != 500 || env.Error.Code != codeInternal || !strings.Contains(env.Error.Message, "year outside of range") {
		t.Fatalf("unencodable row = %d %+v, want 500/internal naming the year", code, env)
	}
	// The MO-only reply carries no times and still succeeds.
	var qr queryResponse
	if code, _ := postJSON(t, ts.URL+"/v1/query", "application/json", `{"query": {"cell": "hall"}, "mos_only": true}`, &qr); code != 200 || qr.Count != 2 {
		t.Fatalf("mos_only = %d %+v", code, qr)
	}
}

func TestQueryReplyEncodeErrorAfterFlushAborts(t *testing.T) {
	// 400 valid rows, then one whose times do not encode; good is the
	// reply had that row been valid.
	st := store.NewSharded(1)
	var rows []core.Trajectory
	for i := range 400 {
		rows = append(rows, mkServerTraj(t, fmt.Sprintf("mo-%04d", i), "hall", "atrium"))
	}
	st.PutAll(rows)
	bad := mkServerTraj(t, "mo-bad", "hall")
	good, err := referenceReply(false, nil, append(rows, bad))
	if err != nil || len(good) <= 2*replyChunk {
		t.Fatalf("valid reply is %d bytes (err %v); it must span chunks", len(good), err)
	}
	bad.Trace[0].Start = farFuture
	bad.Trace[0].End = farFuture
	st.Put(bad)
	_, ts := newTestServer(t, st, Config{})

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query": {"cell": "hall"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d; the header is committed by the first chunk", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading an aborted reply: %d bytes, err %v; want io.ErrUnexpectedEOF", len(body), err)
	}
	if len(body) < replyChunk || len(body) >= len(good) || !bytes.HasPrefix(good, body) {
		t.Fatalf("aborted reply delivered %d bytes, want a proper prefix of at least a chunk", len(body))
	}
}

func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	aerr := writeJSON(rec, math.NaN())
	if aerr == nil || aerr.code != codeInternal || rec.Body.Len() != 0 {
		t.Fatalf("writeJSON(NaN) = %v with %d body bytes, want internal and nothing written", aerr, rec.Body.Len())
	}
}

// TestQueryReplyAllocs: once its pooled buffer is warm, the encoder's
// allocations do not grow with the reply — 10 rows and 1 000 rows (many
// chunks) cost the same small constant.
func TestQueryReplyAllocs(t *testing.T) {
	trajs := make([]core.Trajectory, 1000)
	mos := make([]string, 1000)
	for i := range trajs {
		trajs[i] = mkServerTraj(t, fmt.Sprintf("mo-%04d", i), "hall", "atrium", "room")
		trajs[i].Trace[1].Transition = "door"
		trajs[i].Trace[1].Ann = core.NewAnnotations("zeta", "z", "alpha", "a", "mid", "m")
		trajs[i].Trace[1].TransitionAnn = core.NewAnnotations("via", "stairs")
		mos[i] = trajs[i].MO
	}
	e := replyPool.Get().(*replyEncoder)
	defer replyPool.Put(e)
	allocs := func(mos []string, trajs []core.Trajectory) float64 {
		rows := store.RowsOf(trajs)
		e.write(io.Discard, false, mos, rows) // warm the buffer and the key scratch
		return testing.AllocsPerRun(20, func() {
			if _, err := e.write(io.Discard, false, mos, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name             string
		small, large     float64
		smallLen, bigLen int
	}{
		{"trajectories", allocs(nil, trajs[:10]), allocs(nil, trajs), 10, 1000},
		{"mos", allocs(mos[:10], nil), allocs(mos, nil), 10, 1000},
	} {
		if c.small != c.large || c.large > 1 {
			t.Errorf("%s: %v allocs for %d rows, %v for %d; want the same constant, at most 1", c.name, c.small, c.smallLen, c.large, c.bigLen)
		}
	}
}

// FuzzQueryReplyEncoding holds the reply encoder to encoding/json on
// arbitrary strings (invalid UTF-8, control bytes, <>&, U+2028/2029),
// times in fixed zones with sub-second nanos (including the zero time and
// out-of-range years and offsets, which must fail on both sides), and nil
// versus empty annotation maps, value slices and traces. shape's bits pick
// the variant; testdata/fuzz holds a seed for each of these.
func FuzzQueryReplyEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, mo, cell, key, val string, sec, nsec int64, offset int32, shape uint16) {
		start := time.Unix(sec, nsec).In(time.FixedZone("", int(offset)%(30*3600)))
		if shape&1 != 0 {
			start = time.Time{}
		}
		end := start.Add(time.Duration(nsec % int64(time.Hour)))
		anns := [4]core.Annotations{
			nil,
			{},
			{key: {val, cell}, val: {}, cell: nil},
			{mo: {key}, key: {val}},
		}
		p := core.PresenceInterval{
			Transition:    val,
			Cell:          cell,
			Start:         start,
			End:           end,
			Ann:           anns[shape>>1&3],
			TransitionAnn: anns[shape>>3&3],
		}
		var tr core.Trace
		switch shape >> 5 & 3 {
		case 1:
			tr = core.Trace{}
		case 2:
			tr = core.Trace{p}
		case 3:
			q := p
			q.Cell, q.Transition, q.Ann = key, mo, anns[(shape>>1+1)&3]
			tr = core.Trace{p, q}
		}
		traj := core.Trajectory{MO: mo, Trace: tr, Ann: anns[shape>>7&3]}
		n := 1 + int(shape>>9&3)*50 // up to 151 rows: long strings cross chunks
		var mos []string
		var trajs []core.Trajectory
		switch {
		case shape&(1<<11) != 0: // empty answer
		case shape&(1<<12) != 0:
			mos = slices.Repeat([]string{mo, cell, key, val}, n)
		default:
			trajs = slices.Repeat([]core.Trajectory{traj}, n)
		}
		cached := shape&(1<<13) != 0

		want, wantErr := referenceReply(cached, mos, trajs)
		got, gotErr := encodedReply(cached, mos, trajs)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("encoding/json error %v, encoder error %v", wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("reply differs at byte %d:\n got %q\nwant %q", firstDiff(got, want), got, want)
		}
	})
}
