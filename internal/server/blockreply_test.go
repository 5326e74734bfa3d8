package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/store"
)

// Block-backed rows are encoded straight from their blocks' decoded
// columns (appendBlockRow); these tests hold that path to encoding/json
// of Store.Select, the value those rows materialize to.

// blockReplyDay is the first day of blockReplyTrajs' window.
var blockReplyDay = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

// blockReplyTrajs returns n trajectories with every shape a reply
// carries: strings that need escaping in MOs, cells, transitions and
// annotations; nil, empty and multi-key annotation maps with nil, empty
// and multi-value slices; sub-second times in UTC and in fixed zones.
// Every span lies in the 30 days from blockReplyDay.
func blockReplyTrajs(rng *rand.Rand, n int) []core.Trajectory {
	cells := []string{"hall", "room<1>", "café", "a&b", "line sep"}
	strs := []string{"", "door", `stairs"`, "<tag>", "\xff", "tab\t", "ü", "x "}
	zones := []*time.Location{time.UTC, time.FixedZone("CEST", 2*3600), time.FixedZone("", -(5*3600 + 1800))}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	ann := func() core.Annotations {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return core.Annotations{}
		case 2:
			return core.Annotations{"nil": nil, "empty": {}, pick(strs): {pick(strs), pick(strs)}}
		}
		return core.NewAnnotations("zeta", pick(strs), "alpha", "1", "alpha", pick(strs))
	}
	out := make([]core.Trajectory, n)
	for i := range out {
		at := blockReplyDay.Add(time.Duration(rng.Int63n(int64(29 * 24 * time.Hour))))
		if rng.Intn(2) == 0 {
			at = at.Truncate(time.Second) // whole seconds too
		}
		at = at.In(zones[rng.Intn(len(zones))])
		var tr core.Trace
		for range 1 + rng.Intn(4) {
			end := at.Add(time.Duration(rng.Int63n(int64(time.Hour))))
			tr = append(tr, core.PresenceInterval{
				Transition: pick(strs), Cell: pick(cells), Start: at, End: end,
				Ann: ann(), TransitionAnn: ann(),
			})
			at = end.Add(time.Duration(rng.Int63n(int64(time.Minute))))
		}
		out[i] = core.Trajectory{MO: fmt.Sprintf("mo-%d%s", i%97, pick(strs)), Trace: tr, Ann: ann()}
	}
	return out
}

// openBlockStore opens a durable store in dir and puts ts through it in
// parts: every part but the last is checkpointed, so the store holds
// block-backed rows from parts-1 generations and a live tail.
func openBlockStore(t testing.TB, dir string, opts store.Options, ts []core.Trajectory, parts int) *store.Store {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for p := range parts {
		st.PutBatch(ts[p*len(ts)/parts : (p+1)*len(ts)/parts])
		if p < parts-1 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return st
}

// replyPlans are /v1/query plans over blockReplyTrajs' rows: the whole
// window, cells, an annotation, a cell-during window, one MO, a sequence.
func replyPlans() []string {
	span := func(from, to time.Time) string {
		return fmt.Sprintf(`"from":%q,"to":%q`, from.Format(time.RFC3339Nano), to.Format(time.RFC3339Nano))
	}
	month, week := span(blockReplyDay, blockReplyDay.AddDate(0, 0, 30)), span(blockReplyDay.AddDate(0, 0, 3), blockReplyDay.AddDate(0, 0, 10))
	return []string{
		fmt.Sprintf(`{"time_overlap":{%s}}`, month),
		fmt.Sprintf(`{"and":[{"cell":"café"},{"time_overlap":{%s}}]}`, week),
		`{"has_annotation":{"key":"zeta","value":"<tag>"}}`,
		fmt.Sprintf(`{"cell_during":{"cell":"room<1>",%s}}`, week),
		`{"by_mo":"mo-5"}`,
		`{"through":["hall","a&b"]}`,
		`{"cell":"no-such-cell"}`,
	}
}

// checkReplies posts every plan twice (the second request is a plan-cache
// hit) and compares each reply with encoding/json of Store.Select.
func checkReplies(t *testing.T, st *store.Store, url string) {
	t.Helper()
	for _, plan := range replyPlans() {
		q, _, err := decodeQuery([]byte(plan))
		if err != nil {
			t.Fatal(err)
		}
		trajs, err := st.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			want, err := referenceReply(i > 0, nil, trajs)
			if err != nil {
				t.Fatal(err)
			}
			got := postQuery(t, url, plan)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (request %d): reply differs from encoding/json at byte %d of %d/%d",
					plan, i, firstDiff(got, want), len(got), len(want))
			}
		}
	}
}

// postQuery returns the raw reply body of one trajectory query.
func postQuery(t *testing.T, url, plan string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"query":`+plan+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("%s: status %d, %v: %s", plan, resp.StatusCode, err, body)
	}
	return body
}

// TestQueryReplyFromBlocksMatchesEncodingJSON: a directory holding
// block-backed rows from three generations and a live tail answers every
// plan with the bytes encoding/json writes for Store.Select, at every
// shard count and with no, a tiny and the default block cache. An
// in-memory store (whose rows may have empty traces, which a durable
// store rejects) is held to the same.
func TestQueryReplyFromBlocksMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trajs := blockReplyTrajs(rng, 2000)
	for _, shards := range []int{1, 2, 8} {
		for _, c := range []struct {
			name  string
			bytes int64
		}{{"none", -1}, {"tiny", 256 << 10}, {"default", 0}} {
			t.Run(fmt.Sprintf("shards=%d/cache=%s", shards, c.name), func(t *testing.T) {
				st := openBlockStore(t, t.TempDir(), store.Options{Shards: shards, BlockCacheBytes: c.bytes}, trajs, 4)
				defer st.Close()
				_, ts := newTestServer(t, st, Config{})
				checkReplies(t, st, ts.URL)
			})
		}
	}
	t.Run("in-memory", func(t *testing.T) {
		st := store.NewSharded(2)
		st.PutBatch(trajs)
		st.PutBatch([]core.Trajectory{{MO: "mo-5", Ann: core.NewAnnotations("k", "v")}, {MO: "mo-5", Trace: core.Trace{}}})
		_, ts := newTestServer(t, st, Config{})
		checkReplies(t, st, ts.URL)
	})
}

// TestBlockRowEncodeAllocs: encoding a block-backed row from its decoded
// columns allocates nothing.
func TestBlockRowEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := openBlockStore(t, t.TempDir(), store.Options{Shards: 1}, blockReplyTrajs(rng, 300), 2)
	defer st.Close()
	cq, err := st.Compile(store.TimeOverlap(blockReplyDay, blockReplyDay.AddDate(0, 0, 30)))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.SelectRowsCompiledCtx(context.Background(), cq)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for i := range rows.Len() {
		if rows.Live(i) == nil {
			blocks++
		}
	}
	if blocks == 0 || blocks == rows.Len() {
		t.Fatalf("%d of %d rows block-backed, want both kinds", blocks, rows.Len())
	}
	buf := make([]byte, 0, 4<<20)
	encode := func() {
		b := buf[:0]
		for i := range rows.Len() {
			if rows.Live(i) == nil {
				b = appendBlockRow(b, rows.Block(i))
			}
		}
	}
	encode()
	if n := testing.AllocsPerRun(20, encode); n != 0 {
		t.Fatalf("encoding %d block rows allocates %v times, want 0", blocks, n)
	}
}

// TestOffsetRowReplyStableAcrossCheckpointAndReopen: a row ingested with a
// +02:00 offset answers the same bytes live, after a checkpoint swaps it
// to a block, and after a reopen replays it — a durable store keeps its
// times in UTC from the start.
func TestOffsetRowReplyStableAcrossCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() (*store.Store, string) {
		st, err := store.Open(dir, store.Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, st, Config{PlanCacheSize: -1})
		return st, ts.URL
	}
	st, url := open()
	const csv = "mo,cell,start,end\n" +
		"z-1,hall,2019-05-01T10:00:00.25+02:00,2019-05-01T10:05:00+02:00\n" +
		"z-1,atrium,2019-05-01T10:06:00+02:00,2019-05-01T10:09:00.5+02:00\n"
	if code, env := postJSON(t, url+"/v1/ingest", "text/csv", csv, nil); code != 200 {
		t.Fatalf("ingest = %d %+v", code, env)
	}
	const plan = `{"by_mo":"z-1"}`
	live := postQuery(t, url, plan)
	if !bytes.Contains(live, []byte(`"Start":"2019-05-01T08:00:00.25Z"`)) {
		t.Fatalf("live reply %s: want the interval times in UTC", live)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := postQuery(t, url, plan)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, url = open()
	defer st.Close()
	reopened := postQuery(t, url, plan)
	if !bytes.Equal(live, checkpointed) || !bytes.Equal(live, reopened) {
		t.Fatalf("replies differ:\n live         %s\n checkpointed %s\n reopened     %s", live, checkpointed, reopened)
	}
}

// FuzzAppendTimeNanos holds appendTimeNanos to Time.AppendText of the UTC
// time, quoted, for every int64; testdata/fuzz seeds the int64 extremes,
// pre-1970 instants, leap days, whole seconds and trailing-zero nanos.
func FuzzAppendTimeNanos(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int64) {
		want, err := appendTime(nil, time.Unix(0, n).UTC())
		if err != nil {
			t.Fatal(err)
		}
		if got := appendTimeNanos(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("appendTimeNanos(%d) = %s, want %s", n, got, want)
		}
	})
}

// TestRaceStressBlockReplies: readers encode replies from block columns
// while a block cache a quarter of the working set evicts those blocks and
// a writer ingests rows outside the readers' window and checkpoints,
// swapping the readers' live rows to blocks. Cached columns are immutable
// and each reply pins the ones it reads, so every reply equals
// encoding/json of Store.Select from before the writer started. Run with
// -race and -shards N (the CI race sweep).
func TestRaceStressBlockReplies(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	dir := t.TempDir()
	opts := store.Options{Shards: *shardFlag}
	// Many generations make many small blocks, so a quarter budget holds
	// some of them and evicts the rest.
	const gens = 40
	stable := blockReplyTrajs(rng, 1200)
	st := openBlockStore(t, dir, opts, stable[:len(stable)*gens/(gens+1)], gens)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := store.Open(dir, store.Options{ReadOnly: true, BlockCacheBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	ro.All()
	ws, _ := ro.BlockCacheStats()
	ro.Close()
	opts.BlockCacheBytes = ws.Bytes / 4
	st, err = store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.PutBatch(stable[len(stable)*gens/(gens+1):]) // live until the writer's first checkpoint

	cq, err := st.Compile(store.TimeOverlap(blockReplyDay, blockReplyDay.AddDate(0, 0, 30)))
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := st.SelectCompiledCtx(context.Background(), cq)
	if err != nil || len(trajs) != len(stable) {
		t.Fatalf("stable rows: %d of %d, %v", len(trajs), len(stable), err)
	}
	want, err := referenceReply(false, nil, trajs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: a later month, one checkpoint per batch
		defer wg.Done()
		defer close(done)
		later := blockReplyTrajs(rand.New(rand.NewSource(41)), 600)
		for i := range later {
			later[i].MO = "w-" + later[i].MO
			for j := range later[i].Trace {
				later[i].Trace[j].Start = later[i].Trace[j].Start.AddDate(0, 2, 0)
				later[i].Trace[j].End = later[i].Trace[j].End.AddDate(0, 2, 0)
			}
		}
		for k := range 6 {
			st.PutBatch(later[k*100 : (k+1)*100])
			if err := st.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= 4 {
						return
					}
				default:
				}
				rows, err := st.SelectRowsCompiledCtx(context.Background(), cq)
				if err != nil {
					t.Error(err)
					return
				}
				buf.Reset()
				if _, err := writeQueryReply(&buf, false, nil, rows); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("reply %d differs from encoding/json at byte %d", n, firstDiff(buf.Bytes(), want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if cs, _ := st.BlockCacheStats(); cs.Evictions == 0 {
		t.Fatalf("block cache %+v: the quarter budget never evicted", cs)
	}
}
