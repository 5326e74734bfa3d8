package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"sitm/internal/core"
	"sitm/internal/simulate"
	"sitm/internal/store"
)

// datasetParams scales the paper's calibration the way `sitm generate
// -scale` does: population and detection volume grow, the five-month
// window stays, so a larger scale means a denser museum.
func datasetParams(seed int64, scale float64) simulate.Params {
	p := simulate.DefaultParams()
	p.Seed = seed
	p.Visitors = int(float64(p.Visitors) * scale)
	p.ReturningVisitors = int(float64(p.ReturningVisitors) * scale)
	p.RepeatVisits = int(float64(p.RepeatVisits) * scale)
	p.TargetDetections = int(float64(p.TargetDetections) * scale)
	return p
}

// generateFeed returns the seeded Louvre dataset's detections as a
// time-ordered live feed.
func generateFeed(seed int64, scale float64) ([]core.Detection, error) {
	d, _, err := simulate.GenerateLouvre(datasetParams(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("generate feed: %w", err)
	}
	return d.DetectionsByTime(), nil
}

// partitionByMO splits a feed into n disjoint, time-ordered halves (or
// thirds, ...) by a hash of the moving object, so every MO's detections
// reach exactly one writer and no session is cut across writers.
func partitionByMO(feed []core.Detection, n int) [][]core.Detection {
	parts := make([][]core.Detection, n)
	for _, d := range feed {
		h := fnv.New32a()
		h.Write([]byte(d.MO))
		i := int(h.Sum32() % uint32(n))
		parts[i] = append(parts[i], d)
	}
	return parts
}

// body is one POST /v1/ingest request: a detections CSV and the
// detections it encodes (kept only until the oracle has segmented them).
type body struct {
	csv  []byte
	dets []core.Detection
	rows int
}

// encodeBodies chunks a feed into CSV bodies of at most size detections.
func encodeBodies(feed []core.Detection, size int) ([]body, error) {
	var out []body
	for lo := 0; lo < len(feed); lo += size {
		hi := min(lo+size, len(feed))
		var buf bytes.Buffer
		if err := store.WriteDetectionsCSV(&buf, feed[lo:hi]); err != nil {
			return nil, fmt.Errorf("encode body: %w", err)
		}
		out = append(out, body{csv: buf.Bytes(), dets: feed[lo:hi], rows: hi - lo})
	}
	return out, nil
}

// hashInputs identifies a run's input: every body and every plan it
// sends, so two runs that print the same hash measured the same requests.
func hashInputs(bodies [][]body, plans []*plan) string {
	h := sha256.New()
	for _, bs := range bodies {
		for _, b := range bs {
			h.Write(b.csv)
		}
	}
	for _, p := range plans {
		h.Write(p.json)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// endpoints holds every detection start and end of a feed, sorted, so
// query windows can be placed where no data instant lies near their
// edges (see quietBoundary).
type endpoints []int64

func feedEndpoints(feed []core.Detection) endpoints {
	e := make(endpoints, 0, 2*len(feed))
	for _, d := range feed {
		e = append(e, d.Start.UnixNano(), d.End.UnixNano())
	}
	sort.Slice(e, func(i, j int) bool { return e[i] < e[j] })
	return e
}

// quietBoundary returns the first whole second at or after t with no data
// instant within margin of it. A window edge moved by less than margin
// then selects exactly the same rows, which lets every request carry a
// distinct window (a distinct plan fingerprint) with a known answer.
func (e endpoints) quietBoundary(t time.Time, margin time.Duration) time.Time {
	t = t.Truncate(time.Second)
	for {
		lo := t.UnixNano() - int64(margin)
		i := sort.Search(len(e), func(i int) bool { return e[i] >= lo })
		if i == len(e) || e[i] > t.UnixNano()+int64(margin) {
			return t
		}
		t = t.Add(time.Second)
	}
}
