package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"sitm/internal/core"
	"sitm/internal/ingest"
	"sitm/internal/store"
)

// ingestBodies ingests every body into st exactly as the server's ingest
// handler segments a request — one request-scoped ingest.Ingestor per
// body, Observe per detection, Flush — and returns each body's trajectory
// count. Into an in-memory store.New() it builds the reference the
// oracle answers from; into a durable store it builds a query dir.
func ingestBodies(st *store.Store, bodies []body) []int {
	counts := make([]int, len(bodies))
	for i, b := range bodies {
		ing := ingest.New(st, ingest.Options{})
		for _, d := range b.dets {
			ing.Observe(d)
		}
		ing.Flush()
		counts[i] = ing.Stats().Stored
	}
	return counts
}

// expect sets every plan's expected count and answer digest from the
// reference store, so the reference can be released before timing.
func expect(ref *store.Store, plans []*plan) error {
	for _, p := range plans {
		_, q, err := p.request(0)
		if err != nil {
			return err
		}
		var items [][]byte
		if p.mosOnly {
			mos, err := ref.SelectMOs(q)
			if err != nil {
				return fmt.Errorf("reference %s: %w", p.shape, err)
			}
			for _, mo := range mos {
				items = append(items, []byte(mo))
			}
		} else {
			ts, err := ref.Select(q)
			if err != nil {
				return fmt.Errorf("reference %s: %w", p.shape, err)
			}
			for _, t := range ts {
				b, err := json.Marshal(t)
				if err != nil {
					return err
				}
				items = append(items, b)
			}
		}
		p.want, p.digest = len(items), answerDigest(items)
	}
	return nil
}

// answerDigest is an order-free digest of an answer: the SHA-256 of its
// items — MO names, or the JSON encodings of trajectories — sorted and
// length-prefixed. Two writers ingest concurrently, so the served store
// holds the trajectories in another order than the reference does.
func answerDigest(items [][]byte) [sha256.Size]byte {
	sorted := slices.Clone(items)
	slices.SortFunc(sorted, bytes.Compare)
	h := sha256.New()
	var n [8]byte
	for _, it := range sorted {
		binary.LittleEndian.PutUint64(n[:], uint64(len(it)))
		h.Write(n[:])
		h.Write(it)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// checkFull compares a decoded reply with the reference's full answer to
// the same plan: its count and the digest of its items.
func checkFull(p *plan, b []byte) error {
	var got queryFull
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("%s: decode reply: %w", p.shape, err)
	}
	var items [][]byte
	for _, mo := range got.MOs {
		items = append(items, []byte(mo))
	}
	for _, t := range got.Trajectories {
		items = append(items, t)
	}
	if got.Count != p.want || len(items) != p.want {
		return fmt.Errorf("%s: %d results (count %d), reference has %d", p.shape, len(items), got.Count, p.want)
	}
	if answerDigest(items) != p.digest {
		return fmt.Errorf("%s: results differ from the reference", p.shape)
	}
	return nil
}

// warmUp sends every plan once, untimed, to fill the caches of a newly
// opened store. With full set, it is the oracle's first pass: it decodes
// each reply in full and compares it with the reference's answer;
// otherwise it checks the counts, as the timed loop does.
func warmUp(url string, plans []*plan, full bool, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, p := range plans {
		r := post(client, url+"/v1/query", "application/json", p.json, nil)
		if !r.ok() {
			return fmt.Errorf("warm-up %s: status %d %v %s", p.shape, r.status, r.err, r.body)
		}
		if full {
			if err := checkFull(p, r.body); err != nil {
				rep.mismatch("%v", err)
			}
			continue
		}
		head, err := parseQueryHead(r.body)
		if err != nil {
			return err
		}
		if head.count != p.want {
			rep.mismatch("warm-up %s: count %d, reference %d", p.shape, head.count, p.want)
		}
	}
	return nil
}

// sampleTrajectories draws about n trajectories of ref with rng-free
// stride sampling.
func sampleTrajectories(ref *store.Store, n int) []core.Trajectory {
	all := ref.All()
	var out []core.Trajectory
	step := max(1, len(all)/(4*n))
	for i := 0; i < len(all) && len(out) < n; i += step {
		out = append(out, all[i])
	}
	return out
}
