package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"sitm/internal/indoor"
	"sitm/internal/louvre"
	"sitm/internal/server"
	"sitm/internal/store"
)

// clients is the closed-loop client count of every workload: one per CPU
// of the 2-CPU machine the benchmark is sized for, and one connection each.
const clients = 2

// louvreRegions compiles the Louvre hierarchy (Museum → Wing → Floor →
// Zone → Room → RoI) that region plans are answered against.
func louvreRegions() (*indoor.RegionTable, error) {
	sg, h, err := louvre.Build()
	if err != nil {
		return nil, fmt.Errorf("build louvre model: %w", err)
	}
	rt, err := indoor.CompileRegions(sg, h)
	if err != nil {
		return nil, fmt.Errorf("compile louvre regions: %w", err)
	}
	return rt, nil
}

// service is an in-process sitmd: server.New over a store with the Louvre
// regions attached, served on a loopback listener. The sitmd binary is not
// used because it never attaches a region table, so every region plan it
// receives fails.
type service struct {
	st  *store.Store
	srv *server.Server
	hs  *http.Server
	url string
	// done receives Serve's result once the listener closes.
	done chan error
}

// startService opens dir, attaches rt and starts serving. wrap, when
// non-nil, wraps the server's handler (the traced run records ServeHTTP
// through it).
func startService(dir string, opts store.Options, rt *indoor.RegionTable, wrap func(http.Handler) http.Handler) (*service, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st.AttachRegions(rt)
	return serve(st, wrap)
}

// serve starts serving st on a fresh loopback listener; it closes st if
// it cannot listen.
func serve(st *store.Store, wrap func(http.Handler) http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(st, server.Config{})
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	s := &service{st: st, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener, waits for Serve to return, and drains the
// server, which syncs, checkpoints (when writable) and closes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Drain(ctx))
}

// newClient returns the HTTP client of one closed-loop client: one
// keep-alive connection, no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// post sends one request; hdr carries trace identity in the traced run.
func post(c *http.Client, url string, ctype string, payload []byte, hdr map[string]string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", ctype)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

func traceHeaders(req, parent int64) map[string]string {
	return map[string]string{hdrReq: strconv.FormatInt(req, 10), hdrParent: strconv.FormatInt(parent, 10)}
}

// ingestReply is the body of a 2xx POST /v1/ingest.
type ingestReply struct {
	Rows         int  `json:"rows"`
	Trajectories int  `json:"trajectories"`
	Synced       bool `json:"synced"`
}

func parseIngest(b []byte) (ingestReply, error) {
	var r ingestReply
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("ingest reply: %w", err)
	}
	return r, nil
}

// queryHead is the leading part of a POST /v1/query reply. The server
// encodes count and cached first, so the timed loop reads them from the
// prefix instead of decoding thousands of trajectories.
type queryHead struct {
	count  int
	cached bool
}

var (
	headCount  = []byte(`{"count":`)
	headCached = []byte(`,"cached":`)
)

func parseQueryHead(b []byte) (queryHead, error) {
	var h queryHead
	rest, ok := bytes.CutPrefix(b, headCount)
	if !ok {
		return h, fmt.Errorf("query reply does not start with %s: %.60q", headCount, b)
	}
	i := bytes.Index(rest, headCached)
	if i < 0 {
		return h, fmt.Errorf("query reply lacks %s", headCached)
	}
	n, err := strconv.Atoi(string(rest[:i]))
	if err != nil {
		return h, fmt.Errorf("query reply count: %w", err)
	}
	h.count = n
	h.cached = bytes.HasPrefix(rest[i+len(headCached):], []byte("true"))
	if !bytes.HasSuffix(b, []byte("}\n")) {
		return h, errors.New("query reply is truncated")
	}
	return h, nil
}

// queryFull is a fully decoded POST /v1/query reply, used by the oracle.
type queryFull struct {
	Count        int               `json:"count"`
	Cached       bool              `json:"cached"`
	MOs          []string          `json:"mos"`
	Trajectories []json.RawMessage `json:"trajectories"`
}

// statsReply is the part of GET /v1/stats the per-layer report reads.
type statsReply struct {
	Admission struct {
		Read, Write struct {
			Admitted int64 `json:"admitted"`
			Queued   int64 `json:"queued"`
			Shed     int64 `json:"shed"`
		}
	} `json:"admission"`
	PlanCache *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	BlockCache *store.BlockCacheStats `json:"block_cache"`
}

func fetchStats(c *http.Client, url string) (statsReply, error) {
	var s statsReply
	resp, err := c.Get(url + "/v1/stats")
	if err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	return s, nil
}
