package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sitm/internal/store"
)

var addrRe = regexp.MustCompile(`on (\S+)\n`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a cancel that triggers the drain path (the in-process stand-in
// for SIGTERM, which feeds the same context via signal.NotifyContext).
func startDaemon(t *testing.T, args ...string) (url string, drain func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, append(args, "-addr", "127.0.0.1:0"), pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		cancel()
		t.Fatalf("daemon exited before announcing its address: %v", <-done)
	}
	m := addrRe.FindStringSubmatch(sc.Text() + "\n")
	if m == nil {
		cancel()
		t.Fatalf("unparseable startup line: %q", sc.Text())
	}
	go io.Copy(io.Discard, pr) // keep the pipe drained past startup
	t.Cleanup(cancel)
	return "http://" + m[1], func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after drain")
			return nil
		}
	}
}

const daemonCSV = "mo,cell,start,end\n" +
	"d-1,hall,2019-05-01T10:00:00Z,2019-05-01T10:05:00Z\n" +
	"d-2,hall,2019-05-01T11:00:00Z,2019-05-01T11:05:00Z\n"

// TestDaemonServeIngestDrainReopen is the daemon lifecycle end to end:
// start, ingest, query, drain via signal context, then reopen the
// directory read-only and confirm the acknowledged rows were persisted
// by the drain's checkpoint.
func TestDaemonServeIngestDrainReopen(t *testing.T) {
	dir := t.TempDir()
	url, drain := startDaemon(t, "-store", dir, "-shards", "2")

	resp, err := http.Post(url+"/v1/ingest", "text/csv", strings.NewReader(daemonCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}

	resp, err = http.Post(url+"/v1/query", "application/json",
		strings.NewReader(`{"query": {"cell": "hall"}, "mos_only": true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "d-1") {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}

	if err := drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drained store reopens read-only (manifest present) with both
	// acked MOs.
	st, err := store.Open(dir, store.Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	mos, err := st.SelectMOs(store.Cell("hall"))
	if err != nil || len(mos) != 2 {
		t.Fatalf("reopened store: %v, %v", mos, err)
	}
}

// TestDaemonReadOnlyMode: -read-only serves queries, rejects ingest with
// the typed read_only error, and leaves the directory untouched.
func TestDaemonReadOnlyMode(t *testing.T) {
	dir := t.TempDir()
	url, drain := startDaemon(t, "-store", dir, "-shards", "1")
	resp, err := http.Post(url+"/v1/ingest", "text/csv", strings.NewReader(daemonCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := drain(); err != nil {
		t.Fatal(err)
	}

	url, drain = startDaemon(t, "-store", dir, "-shards", "1", "-read-only")
	resp, err = http.Post(url+"/v1/ingest", "text/csv", strings.NewReader(daemonCSV))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 403 || !strings.Contains(string(body), "read_only") {
		t.Fatalf("read-only ingest = %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(url+"/v1/query", "application/json",
		strings.NewReader(`{"query": {"cell": "hall"}, "mos_only": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("read-only query = %d", resp.StatusCode)
	}
	if err := drain(); err != nil {
		t.Fatalf("read-only drain: %v", err)
	}
}

// TestDaemonLoadgen: the loadgen subcommand against a live daemon
// reports accepted traffic and writes the acked-key ledger.
func TestDaemonLoadgen(t *testing.T) {
	dir := t.TempDir()
	url, drain := startDaemon(t, "-store", dir, "-shards", "1")

	acked := dir + "-acked.txt"
	var out strings.Builder
	err := run(context.Background(), []string{
		"loadgen", "-url", url, "-clients", "4", "-requests", "8",
		"-write-every", "2", "-prefix", "lgt", "-acked-out", acked,
	}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "accepted") {
		t.Fatalf("loadgen report: %s", out.String())
	}
	ledger, err := os.ReadFile(acked)
	if err != nil {
		t.Fatal(err)
	}
	keys := strings.Fields(string(ledger))
	if len(keys) == 0 {
		t.Fatal("loadgen acknowledged no writes")
	}

	if err := drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := store.Open(dir, store.Options{Shards: 1, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		rows, err := st.Select(store.ByMO(k))
		if err != nil || len(rows) == 0 {
			t.Fatalf("acked key %q missing after drain: %v", k, err)
		}
	}
}

// TestDaemonBlockCacheFlag: -block-cache sizes the block cache that
// serves checkpointed rows — 0 keeps the default, a negative budget
// caches nothing, and a positive one bounds the bytes held.
func TestDaemonBlockCacheFlag(t *testing.T) {
	dir := t.TempDir()
	url, drain := startDaemon(t, "-store", dir, "-shards", "1")
	resp, err := http.Post(url+"/v1/ingest", "text/csv", strings.NewReader(daemonCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := drain(); err != nil { // the drain checkpoints: the rows are block-backed
		t.Fatal(err)
	}

	type cacheStats struct {
		BlockCache *store.BlockCacheStats `json:"block_cache"`
	}
	served := func(args ...string) store.BlockCacheStats {
		t.Helper()
		url, drain := startDaemon(t, append([]string{"-store", dir, "-read-only"}, args...)...)
		defer func() {
			if err := drain(); err != nil {
				t.Fatal(err)
			}
		}()
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"query": {"cell": "hall"}}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), `"count":2`) {
			t.Fatalf("query = %d %s", resp.StatusCode, body)
		}
		resp, err = http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st cacheStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.BlockCache == nil {
			t.Fatalf("stats: %v, block cache %v", err, st.BlockCache)
		}
		return *st.BlockCache
	}
	if got := served(); got.Entries != 1 || got.Misses != 1 {
		t.Fatalf("default budget: %+v, want the block cached after one miss", got)
	}
	if got := served("-block-cache", "-1"); got.Entries != 0 || got.Misses != 1 {
		t.Fatalf("-block-cache -1: %+v, want nothing cached", got)
	}
	if got := served("-block-cache", "64"); got.Entries != 0 || got.Bytes != 0 {
		t.Fatalf("-block-cache 64: %+v, want a block larger than the budget left uncached", got)
	}
}
