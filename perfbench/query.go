package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sitm/internal/core"
	"sitm/internal/store"
)

const (
	// selectPlans is the number of distinct plans query_select repeats:
	// well under the server's 256-entry plan cache, so after warm-up
	// every request is a plan-cache hit.
	selectPlans = 128
	// broadPlans is the number of base windows query_broad draws from;
	// every request widens its window by a fresh jitter, so no request
	// repeats a fingerprint. Many bases average out how much one wing or
	// week costs more than another.
	broadPlans = 96
	// broadCacheShare is the block cache budget of query_broad as a
	// share of the residual working set, so most materializations miss.
	broadCacheShare = 0.25
)

// residualWorkingSet is the block cache footprint of every segment block
// of dir: it materializes every trajectory through an unbounded cache.
func residualWorkingSet(dir string) (int64, error) {
	st, err := store.Open(dir, store.Options{ReadOnly: true, BlockCacheBytes: 1 << 40})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	st.All()
	bcs, _ := st.BlockCacheStats()
	return bcs.Bytes, nil
}

// queryRun accumulates the query slices' measurements.
type queryRun struct {
	q      tally
	rates  samples // successful queries per second, per window
	server serverCounts
}

// serverCounts are the server's own counters, summed over the timed
// loops.
type serverCounts struct {
	hits, misses           int64 // plan cache
	admitted, queued, shed int64 // admission, reads and writes
}

// add adds the counters' growth from b to a.
func (c *serverCounts) add(b, a statsReply) {
	if a.PlanCache != nil && b.PlanCache != nil {
		c.hits += a.PlanCache.Hits - b.PlanCache.Hits
		c.misses += a.PlanCache.Misses - b.PlanCache.Misses
	}
	c.admitted += a.Admission.Read.Admitted - b.Admission.Read.Admitted + a.Admission.Write.Admitted - b.Admission.Write.Admitted
	c.queued += a.Admission.Read.Queued - b.Admission.Read.Queued + a.Admission.Write.Queued - b.Admission.Write.Queued
	c.shed += a.Admission.Read.Shed - b.Admission.Read.Shed + a.Admission.Write.Shed - b.Admission.Write.Shed
}

// queryPhase runs the closed loop for d and adds its measurements to run:
// each client sends the plans in turn from its own starting offset and
// checks every count. With tr set, each request is traced: the HTTP round
// trip (the server's ServeHTTP recorded inside it), then the same plan's
// compile, select and reply encoding replayed on shadow.
func queryPhase(d time.Duration, rep *report, svc *service, plans []*plan, tr *tracer, shadow *store.Store, run *queryRun) error {
	sc := newClient()
	defer sc.CloseIdleConnections()
	before, err := fetchStats(sc, svc.url)
	if err != nil {
		return err
	}
	var seq atomic.Int64
	tallies := make([]tally, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	m := startMeter(deadline)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := c * len(plans) / clients; time.Now().Before(deadline); i++ {
				p := plans[i%len(plans)]
				var jit time.Duration
				if p.jitter {
					jit = time.Duration(1 + seq.Add(1)%int64(jitterMargin-1))
				}
				ok := len(tallies[c].latMs)
				if err := sendQuery(client, svc.url, p, jit, &tallies[c], tr, shadow); err != nil {
					errs[c] = err
					return
				}
				m.n.Add(int64(len(tallies[c].latMs) - ok))
			}
		}()
	}
	wg.Wait()
	run.rates = append(run.rates, m.wait()...)
	for c := range clients {
		if errs[c] != nil {
			return errs[c]
		}
		run.q.add(&tallies[c])
	}
	after, err := fetchStats(sc, svc.url)
	if err != nil {
		return err
	}
	run.server.add(before, after)
	for _, m := range mismatches(plans) {
		rep.mismatch("%s", m)
	}
	return nil
}

// sendQuery sends one plan, records it in t and checks its count; a wrong
// count is recorded on the plan.
func sendQuery(client *http.Client, url string, p *plan, jit time.Duration, t *tally, tr *tracer, shadow *store.Store) error {
	// Only a jittered or replayed request needs rendering; the others
	// send the body rendered once, keeping the clients' own work small.
	body, q := p.json, store.Query(nil)
	if jit != 0 || tr != nil {
		var err error
		if body, q, err = p.request(jit); err != nil {
			return err
		}
	}
	var r reply
	var rq *reqTrace
	t0 := time.Now()
	if tr == nil {
		r = post(client, url+"/v1/query", "application/json", body, nil)
	} else {
		rq = tr.begin("request")
		rq.call("http.roundtrip", func(id int64) {
			r = post(client, url+"/v1/query", "application/json", body, traceHeaders(rq.req, id))
		})
	}
	elapsed := time.Since(t0)
	if !r.ok() {
		t.record(false, elapsed)
		if rq != nil {
			rq.finish()
		}
		return nil
	}
	head, err := parseQueryHead(r.body)
	if err != nil {
		return err
	}
	if head.count != p.want {
		p.wrong.Add(1)
	}
	if rq != nil {
		rq.meta = reqMeta{kind: "query", cached: head.cached, respBytes: len(r.body), results: head.count}
		if err := replayQuery(rq, shadow, q, p.mosOnly, head); err != nil {
			return err
		}
		rq.finish()
		elapsed = time.Since(t0)
	}
	t.record(true, elapsed)
	return nil
}

// queryReply mirrors the server's reply shape, so the replayed encode does
// the server's encoding work.
type queryReply struct {
	Count        int               `json:"count"`
	Cached       bool              `json:"cached"`
	MOs          []string          `json:"mos,omitempty"`
	Trajectories []core.Trajectory `json:"trajectories,omitempty"`
}

// replayQuery times the store and encode work of one query as calls to
// the layers' public functions: Compile, Select(MOs)CompiledCtx, and the
// JSON encoding of the reply.
func replayQuery(rq *reqTrace, st *store.Store, q store.Query, mosOnly bool, head queryHead) error {
	var cq *store.CompiledQuery
	var err error
	rq.call("store.compile", func(int64) { cq, err = st.Compile(q) })
	if err != nil {
		return fmt.Errorf("replay compile: %w", err)
	}
	resp := queryReply{Cached: head.cached}
	rq.call("store.select", func(int64) {
		if mosOnly {
			resp.MOs, err = st.SelectMOsCompiledCtx(context.Background(), cq)
			resp.Count = len(resp.MOs)
		} else {
			resp.Trajectories, err = st.SelectCompiledCtx(context.Background(), cq)
			resp.Count = len(resp.Trajectories)
		}
	})
	if err != nil {
		return fmt.Errorf("replay select: %w", err)
	}
	if resp.Count != head.count {
		return fmt.Errorf("replay returned %d rows, the server %d", resp.Count, head.count)
	}
	var buf bytes.Buffer
	rq.call("server.encode", func(int64) { err = json.NewEncoder(&buf).Encode(&resp) })
	return err
}
