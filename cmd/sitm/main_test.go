package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sitm"
)

// -update regenerates the golden files from current output:
//
//	go test ./cmd/sitm -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenSubcommands locks the CLI's observable output. Every case is
// fully deterministic (seeded generator, fixed artefact content), so any
// diff is a real behavioural regression — these run in tier-1.
func TestGoldenSubcommands(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"figures-t1", []string{"figures", "-id", "T1"}},
		{"figures-f2", []string{"figures", "-id", "F2"}},
		{"figures-f5", []string{"figures", "-id", "F5"}},
		{"figures-x1", []string{"figures", "-id", "X1"}},
		{"stats-scale01", []string{"stats", "-scale", "0.1"}},
		{"mine-scale005", []string{"mine", "-scale", "0.05", "-top", "5"}},
		{"profile-scale005", []string{"profile", "-scale", "0.05", "-k", "3"}},
		{"ingest-feed", []string{"ingest", "-in", "testdata/feed.csv"}},
		{"ingest-feed-merge", []string{"ingest", "-in", "testdata/feed.csv", "-merge", "-keep-zero", "-top", "3"}},
		{"query-through", []string{"query", "-store", "testdata/store.json", "-through", "E,P,S"}},
		{"query-overlap", []string{"query", "-store", "testdata/store.json",
			"-overlap", "2017-02-14T00:00:00Z,2017-02-14T00:30:00Z"}},
		{"query-incell", []string{"query", "-store", "testdata/store.json",
			"-in-cell", "S,2017-02-14T00:20:00Z,2017-02-14T00:40:00Z"}},
		{"query-combined", []string{"query", "-store", "testdata/store.json", "-shards", "3",
			"-through", "P,S,C",
			"-overlap", "2017-02-14T04:50:00Z,2017-02-14T06:00:00Z",
			"-in-cell", "E,2017-02-14T00:00:00Z,2017-02-14T00:05:00Z"}},
		{"query-plan-region", []string{"query", "-store", "testdata/louvre-store.json",
			"-region", "Wing:napoleon"}},
		{"query-plan-floor", []string{"query", "-store", "testdata/louvre-store.json",
			"-region", "Floor:napoleon:-2", "-annotation", "activity=visit"}},
		{"query-plan-compose", []string{"query", "-store", "testdata/louvre-store.json", "-shards", "2",
			"-region", "Wing:napoleon",
			"-annotation", "activity=visit",
			"-overlap", "2017-02-14T00:00:00Z,2017-02-14T02:00:00Z",
			"-through", "zone60885,zone60887"}},
		{"query-plan-mo", []string{"query", "-store", "testdata/store.json",
			"-mo", "alice", "-through", "E,P"}},
		{"query-plan-empty", []string{"query", "-store", "testdata/louvre-store.json",
			"-region", "Wing:richelieu"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, firstDiffContext(buf.String(), string(want)), firstDiffContext(string(want), buf.String()))
			}
		})
	}
}

// firstDiffContext trims two long outputs to the first differing line with
// a little context, keeping failure messages readable.
func firstDiffContext(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(g) {
				hi = len(g)
			}
			return strings.Join(g[lo:hi], "\n")
		}
	}
	if len(g) != len(w) {
		return "(line counts differ: " + strings.Join(g[max(0, min(len(g), len(w))-1):], "\n") + ")"
	}
	return got
}

// TestUnknownCommand keeps the dispatch contract.
func TestUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"frobnicate"}, &buf); err != errUnknownCommand {
		t.Fatalf("err = %v", err)
	}
}

// TestIngestRejectsBadFeed: parser errors surface, they don't crash.
func TestIngestRejectsBadFeed(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,valid\nfeed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"ingest", "-in", bad}, &buf); err == nil {
		t.Fatal("bad feed must error")
	}
	if err := run([]string{"ingest", "-in", filepath.Join(dir, "missing.csv")}, &buf); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestQueryRejectsBadInvocations: flag and parse errors surface cleanly.
func TestQueryRejectsBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"query", "-through", "E,P"}, &buf); err == nil {
		t.Fatal("missing -store must error")
	}
	if err := run([]string{"query", "-store", "testdata/store.json"}, &buf); err == nil {
		t.Fatal("no query flag must error")
	}
	if err := run([]string{"query", "-store", "testdata/store.json", "-overlap", "notatime,2017-02-14T00:00:00Z"}, &buf); err == nil {
		t.Fatal("bad window must error")
	}
	if err := run([]string{"query", "-store", "testdata/store.json", "-in-cell", "E"}, &buf); err == nil {
		t.Fatal("short -in-cell must error")
	}
	if err := run([]string{"query", "-store", "testdata/missing.json", "-through", "E"}, &buf); err == nil {
		t.Fatal("missing store file must error")
	}
}

// TestQueryPlanRejectsBadInvocations: the composing plan flags surface
// malformed inputs and unknown regions as errors, with the offending value
// named; a directory that is not a durable store is an error for query
// and inspect alike, and neither leaves a file behind in it.
func TestQueryPlanRejectsBadInvocations(t *testing.T) {
	louvre := []string{"query", "-store", "testdata/louvre-store.json"}
	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, "notes.txt"), []byte("not a store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	missing := filepath.Join(empty, "no", "such", "dir")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"region-no-colon", append(louvre[:len(louvre):len(louvre)], "-region", "Wingnapoleon"), "layer:id"},
		{"region-empty-id", append(louvre[:len(louvre):len(louvre)], "-region", "Wing:"), "layer:id"},
		{"region-unknown", append(louvre[:len(louvre):len(louvre)], "-region", "Wing:atlantis"), "unknown region"},
		{"region-unknown-layer", append(louvre[:len(louvre):len(louvre)], "-region", "Basement:denon"), "unknown region"},
		{"annotation-no-eq", append(louvre[:len(louvre):len(louvre)], "-annotation", "activity"), "k=v"},
		{"bad-model", append(louvre[:len(louvre):len(louvre)], "-region", "Wing:denon", "-model", "martian"), "unknown -model"},
		{"plan-bad-window", append(louvre[:len(louvre):len(louvre)], "-mo", "alice", "-overlap", "notatime,2017-02-14T00:00:00Z"), "-overlap"},
		{"plan-short-in-cell", append(louvre[:len(louvre):len(louvre)], "-mo", "alice", "-in-cell", "E"), "cell,from,to"},
		{"query-not-a-store", []string{"query", "-store", plain, "-through", "E"}, "not a durable store directory"},
		{"inspect-empty-dir", []string{"inspect", empty}, "not a durable store directory"},
		{"inspect-missing-dir", []string{"inspect", missing}, "not a durable store directory"},
	}
	before := [2]string{treeListing(t, plain), treeListing(t, empty)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) must error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) err = %q, want substring %q", tc.args, err, tc.want)
			}
			if after := [2]string{treeListing(t, plain), treeListing(t, empty)}; after != before {
				t.Fatalf("run(%v) changed a directory:\n%q\nwant\n%q", tc.args, after, before)
			}
		})
	}
}

// treeListing renders every file and directory under root with its
// contents, so two listings are equal exactly when the tree is
// byte-identical.
func treeListing(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s dir=%v\n", path, d.IsDir())
		if !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b.Write(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestQueryDurableStoreGoldens: pointing -store at a durable directory
// must produce byte-identical output to the JSON-file path — both when the
// store is recovered from the WAL alone and when it was checkpointed into
// columnar segments. The existing query goldens are reused verbatim.
func TestQueryDurableStoreGoldens(t *testing.T) {
	build := func(t *testing.T, checkpoint bool) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "store")
		st, err := sitm.OpenStore(dir, sitm.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join("testdata", "store.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ReadJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		golden string
		args   []string
	}{
		{"query-through", []string{"-through", "E,P,S"}},
		{"query-overlap", []string{"-overlap", "2017-02-14T00:00:00Z,2017-02-14T00:30:00Z"}},
		{"query-incell", []string{"-in-cell", "S,2017-02-14T00:20:00Z,2017-02-14T00:40:00Z"}},
		{"query-plan-mo", []string{"-mo", "alice", "-through", "E,P"}},
	}
	for _, variant := range []struct {
		name       string
		checkpoint bool
	}{{"wal-only", false}, {"checkpointed", true}} {
		t.Run(variant.name, func(t *testing.T) {
			dir := build(t, variant.checkpoint)
			for _, tc := range cases {
				t.Run(tc.golden, func(t *testing.T) {
					var buf bytes.Buffer
					args := append([]string{"query", "-store", dir}, tc.args...)
					if err := run(args, &buf); err != nil {
						t.Fatalf("run(%v): %v", args, err)
					}
					want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Errorf("durable store output drifted from %s.golden:\n%s",
							tc.golden, firstDiffContext(buf.String(), string(want)))
					}
				})
			}
		})
	}
}

// TestIngestDurableAndCompact: -store makes ingest durable; compact folds
// the WAL into a segment generation; the directory stays queryable.
func TestIngestDurableAndCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var buf bytes.Buffer
	if err := run([]string{"ingest", "-in", filepath.Join("testdata", "feed.csv"), "-store", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "durable store "+dir) {
		t.Fatalf("ingest output missing durable report:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"compact", "-store", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "segment gen 0 → 1") {
		t.Fatalf("compact output = %q", buf.String())
	}
	buf.Reset()
	if err := run([]string{"query", "-store", dir, "-overlap", "2017-02-14T00:00:00Z,2017-02-15T00:00:00Z"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trajectories") {
		t.Fatalf("query against compacted store = %q", buf.String())
	}

	if err := run([]string{"compact"}, &buf); err == nil {
		t.Fatal("compact without -store must error")
	}
}

// TestWriteErrorsSurface: a failing write target must turn into a non-nil
// error, not a clean exit with a truncated file (the bug this PR fixes:
// generate and gml deferred Close and dropped Sync/Close errors).
func TestWriteErrorsSurface(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	var buf bytes.Buffer
	if err := run([]string{"generate", "-scale", "0.01", "-out", "/dev/full"}, &buf); err == nil {
		t.Fatal("generate to /dev/full must error")
	}
	if err := run([]string{"gml", "-out", "/dev/full"}, &buf); err == nil {
		t.Fatal("gml to /dev/full must error")
	}
}

// TestGenerateStreamFeedRoundTrip: generate -stream writes a time-ordered
// feed that ingest consumes completely.
func TestGenerateStreamFeedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.csv")
	var buf bytes.Buffer
	if err := run([]string{"generate", "-scale", "0.01", "-stream", "-out", feed}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "time-ordered feed") {
		t.Fatalf("generate output = %q", buf.String())
	}
	buf.Reset()
	if err := run([]string{"ingest", "-in", feed}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ingested 202 detections") {
		t.Fatalf("ingest output = %q", buf.String())
	}
}

// TestGoldenInspect locks the inspect report (E11). The durable directory
// is rebuilt deterministically on every run — fixed trajectories, fixed
// shard count, one checkpoint — so the manifest line, the per-segment
// block layout with zone-map extents, and the bytes on disk are all
// stable bytes.
func TestGoldenInspect(t *testing.T) {
	dir := t.TempDir()
	st, err := sitm.OpenStore(dir, sitm.StoreOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 2, 14, 9, 0, 0, 0, time.UTC)
	var trajs []sitm.Trajectory
	for i := 0; i < 24; i++ {
		at := base.Add(time.Duration(i*37) * time.Minute)
		tr := sitm.Trace{{
			Cell:  fmt.Sprintf("zone%02d", i%5),
			Start: at,
			End:   at.Add(15 * time.Minute),
		}}
		traj, err := sitm.NewTrajectory(fmt.Sprintf("visitor%02d", i%7), tr,
			sitm.NewAnnotations("activity", "visit"))
		if err != nil {
			t.Fatal(err)
		}
		trajs = append(trajs, traj)
	}
	st.PutBatch(trajs)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"inspect", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "inspect-store.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("inspect output drifted:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}
