package main

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: rank must sort
	}
	return s
}

func TestRankNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
	}{
		{100, 0.5, 50, 50},
		{101, 0.5, 51, 50},
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{1, 0.99, 1, 0},
	} {
		v, beyond := seq(c.n).rank(c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("n=%d p=%v: got %v (%d beyond), want %v (%d beyond)", c.n, c.p, v, beyond, c.v, c.beyond)
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if v, beyond, err := seq(1000).tail(0.99, 10); err != nil || v != 990 || beyond != 10 {
		t.Errorf("1000 samples: p99=%v beyond=%d err=%v", v, beyond, err)
	}
	if _, beyond, err := seq(999).tail(0.99, 10); err == nil {
		t.Errorf("999 samples: p99 accepted with %d beyond", beyond)
	}
	if _, _, err := (samples{}).tail(0.5, 1); err == nil {
		t.Error("empty samples: tail accepted")
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var a, b tally
	a.record(true, 2*time.Millisecond)
	a.record(false, time.Hour) // a shed or error: counted, not timed
	b.record(true, 4*time.Millisecond)
	b.record(false, 0)
	a.add(&b)
	if a.attempted != 4 || a.failed != 2 || len(a.latMs) != 2 {
		t.Fatalf("tally = %+v", a)
	}
	if got := a.latMs.median(); got != 2 {
		t.Errorf("median latency = %v ms, want 2", got)
	}
	rep := newReport()
	if rep.failShare() != 0 {
		t.Error("empty report has a failure share")
	}
	rep.count(&a)
	rep.count(&tally{attempted: 6})
	if rep.res.Attempted != 10 || rep.res.Failed != 2 {
		t.Errorf("report counts %d failed of %d, want 2 of 10", rep.res.Failed, rep.res.Attempted)
	}
	if got := rep.failShare(); got != 0.2 {
		t.Errorf("failShare = %v, want 0.2", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "request", id: 1, start: 0, end: ms(100)},
		{name: "a", id: 2, parent: 1, start: ms(10), end: ms(30)},
		{name: "b", id: 3, parent: 1, start: ms(20), end: ms(50)},  // overlaps a
		{name: "c", id: 4, parent: 1, start: ms(90), end: ms(120)}, // runs past the parent
		{name: "d", id: 5, parent: 3, start: ms(25), end: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestLayerViewAccountsForWallTime(t *testing.T) {
	tr := newTracer()
	rq := tr.begin("request")
	rq.meta = reqMeta{kind: "ingest", rows: 10}
	rq.call("store.csv_parse", func(int64) { time.Sleep(2 * time.Millisecond) })
	rq.call("wal.sync", func(int64) { time.Sleep(2 * time.Millisecond) })
	rq.finish()
	v := newLayerView(tr)
	if got := v.accounted(); got < 0.9 || got > 1 {
		t.Errorf("accounted = %v, want close to 1", got)
	}
	if r, n := v.rowsPerS("store.csv_parse", nil); n != 1 || r <= 0 {
		t.Errorf("parse rows/s = %v over %d spans", r, n)
	}
}

func TestPartitionIsByteIdenticalPerSeed(t *testing.T) {
	encode := func(seed int64) [][]byte {
		feed, err := generateFeed(seed, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, part := range partitionByMO(feed, clients) {
			bodies, err := encodeBodies(part, 100)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, b := range bodies {
				buf.Write(b.csv)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	a, b, c := encode(7), encode(7), encode(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("part %d differs between two runs of seed 7", i)
		}
	}
	if bytes.Equal(a[0], c[0]) {
		t.Error("seeds 7 and 8 generated the same part")
	}

	feed, err := generateFeed(7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	total := 0
	for i, part := range partitionByMO(feed, clients) {
		total += len(part)
		for j, d := range part {
			if o, ok := owner[d.MO]; ok && o != i {
				t.Fatalf("MO %s in parts %d and %d", d.MO, o, i)
			}
			owner[d.MO] = i
			if j > 0 && d.Start.Before(part[j-1].Start) {
				t.Fatalf("part %d is not time-ordered at %d", i, j)
			}
		}
	}
	if total != len(feed) {
		t.Errorf("parts hold %d detections, feed %d", total, len(feed))
	}
}

func TestQuietBoundarySkipsDataInstants(t *testing.T) {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	e := endpoints{
		base.Add(-time.Microsecond).UnixNano(),       // within the margin of base
		base.Add(time.Second + time.Hour).UnixNano(), // far from base+1s
	}
	if got := e.quietBoundary(base.Add(300*time.Millisecond), time.Millisecond); !got.Equal(base.Add(time.Second)) {
		t.Errorf("quietBoundary = %v, want %v", got, base.Add(time.Second))
	}
	if got := e.quietBoundary(base.Add(2*time.Second), time.Millisecond); !got.Equal(base.Add(2 * time.Second)) {
		t.Errorf("quiet instant moved to %v", got)
	}
}

func TestParseQueryHead(t *testing.T) {
	h, err := parseQueryHead([]byte(`{"count":12,"cached":true,"mos":["a"]}` + "\n"))
	if err != nil || h.count != 12 || !h.cached {
		t.Errorf("head = %+v, %v", h, err)
	}
	for _, bad := range []string{
		`{"cached":true,"count":1}` + "\n",
		`{"count":x,"cached":false}` + "\n",
		`{"count":1,"cached":false,"mos":[`,
	} {
		if _, err := parseQueryHead([]byte(bad)); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestCheckFullIgnoresOrderButNotContent(t *testing.T) {
	p := &plan{shape: "test"}
	p.want, p.digest = 2, answerDigest([][]byte{[]byte(`{"mo":"a"}`), []byte(`{"mo":"b"}`)})
	if err := checkFull(p, []byte(`{"count":2,"cached":false,"trajectories":[{"mo":"b"},{"mo":"a"}]}`)); err != nil {
		t.Errorf("reordered answer: %v", err)
	}
	for _, bad := range []string{
		`{"count":2,"cached":false,"trajectories":[{"mo":"a"},{"mo":"c"}]}`,
		`{"count":2,"cached":false,"trajectories":[{"mo":"a"}]}`,
		`{"count":2,"cached":false,"trajectories":[{"mo":"a"},{"mo":"a"}]}`,
	} {
		if err := checkFull(p, []byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
	// Length prefixes keep item boundaries: "ab"+"c" is not "a"+"bc".
	if answerDigest([][]byte{[]byte("ab"), []byte("c")}) == answerDigest([][]byte{[]byte("a"), []byte("bc")}) {
		t.Error("digest ignores item boundaries")
	}
}

func TestTracerAndMeterUnderConcurrentUse(t *testing.T) {
	tr := newTracer()
	m := startMeter(time.Now().Add(1200 * time.Millisecond))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() { // a client goroutine
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rq := tr.begin("request")
				rq.meta = reqMeta{kind: "query"}
				rq.call("http.roundtrip", func(int64) {})
				rq.finish()
				m.n.Add(1)
			}
		}()
		go func() { // a server goroutine recording ServeHTTP spans
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.add(span{name: "server.serve", id: tr.newID(), req: 1})
			}
		}()
	}
	wg.Wait()
	rates := m.wait()
	v := newLayerView(tr)
	if n := len(v.byName["request"]); n != 800 {
		t.Errorf("%d request spans, want 800", n)
	}
	if n := len(v.byName["server.serve"]); n != 800 {
		t.Errorf("%d serve spans, want 800", n)
	}
	if len(rates) != 1 {
		t.Errorf("%d full windows in 1.2 s, want 1", len(rates))
	}
}
