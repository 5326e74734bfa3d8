package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/louvre"
	"sitm/internal/store"
)

// plan is one query the clients send: a JSON body for POST /v1/query and
// the identical store.Query the traced run and the oracle call directly.
// Windowed broad plans are sent with their edges widened by a fresh
// sub-margin jitter on every request (see endpoints.quietBoundary), so
// each request is a distinct plan with the same answer.
type plan struct {
	shape   string
	mosOnly bool
	jitter  bool
	build   func(jit time.Duration) (node any, q store.Query)
	json    []byte       // request body at zero jitter
	want    int          // expected count, from the reference store
	digest  [32]byte     // answerDigest of the reference's answer
	wrong   atomic.Int64 // replies whose count differed from want
}

// mismatches reports, and resets, the plans that got a wrong count.
func mismatches(plans []*plan) []string {
	var out []string
	for _, p := range plans {
		if n := p.wrong.Swap(0); n > 0 {
			out = append(out, fmt.Sprintf("%s (%s): %d replies with a count other than %d", p.shape, p.json, n, p.want))
		}
	}
	return out
}

// jitterMargin bounds how far a jittered window edge moves; window edges
// are placed where no data instant lies within it.
const jitterMargin = time.Millisecond

func newPlan(shape string, mosOnly, jitter bool, build func(time.Duration) (any, store.Query)) (*plan, error) {
	p := &plan{shape: shape, mosOnly: mosOnly, jitter: jitter, build: build}
	b, _, err := p.request(0)
	if err != nil {
		return nil, err
	}
	p.json = b
	return p, nil
}

// request renders the plan with window edges widened by jit.
func (p *plan) request(jit time.Duration) ([]byte, store.Query, error) {
	node, q := p.build(jit)
	b, err := json.Marshal(map[string]any{"query": node, "mos_only": p.mosOnly})
	if err != nil {
		return nil, nil, fmt.Errorf("encode plan %s: %w", p.shape, err)
	}
	return b, q, nil
}

func ts(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

func windowNode(from, to time.Time) any {
	return map[string]any{"time_overlap": map[string]string{"from": ts(from), "to": ts(to)}}
}

func regionNode(layer, id string) any {
	return map[string]any{"region": map[string]string{"layer": layer, "id": id}}
}

// planSpace is what plans are drawn from: the data's cells, the regions
// above them, its days, and sample trajectories for sequence plans.
type planSpace struct {
	rng    *rand.Rand
	ends   endpoints
	cells  []string
	floors []string
	wings  []string
	days   []time.Time // midnight of every day with data
	trajs  []core.Trajectory
}

func newPlanSpace(seed int64, feed []core.Detection, rt *indoor.RegionTable, sample []core.Trajectory) *planSpace {
	ps := &planSpace{rng: rand.New(rand.NewSource(seed)), ends: feedEndpoints(feed), trajs: sample}
	cells, floors, wings, days := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[time.Time]bool{}
	for _, d := range feed {
		cells[d.Cell] = true
		days[d.Start.UTC().Truncate(24*time.Hour)] = true
	}
	for c := range cells {
		ps.cells = append(ps.cells, c)
		if f, ok := rt.AncestorAt(c, louvre.LayerFloor); ok {
			floors[f] = true
		}
		if w, ok := rt.AncestorAt(c, louvre.LayerWing); ok {
			wings[w] = true
		}
	}
	for f := range floors {
		ps.floors = append(ps.floors, f)
	}
	for w := range wings {
		ps.wings = append(ps.wings, w)
	}
	for d := range days {
		ps.days = append(ps.days, d)
	}
	sort.Strings(ps.cells)
	sort.Strings(ps.floors)
	sort.Strings(ps.wings)
	sort.Slice(ps.days, func(i, j int) bool { return ps.days[i].Before(ps.days[j]) })
	return ps
}

// stratum returns instance k of n's pick among m choices: the choices are
// split into n even strata and k draws at random within its own, so every
// seed covers the choices evenly and the plans' total cost varies little
// from seed to seed. Cells and regions, whose traffic differs most, are
// spread evenly without a draw.
func (ps *planSpace) stratum(k, n, m int) int {
	lo, hi := k*m/n, (k+1)*m/n
	if hi <= lo {
		return lo % m
	}
	return lo + ps.rng.Intn(hi-lo)
}

// window returns [from, to) of length d starting offset after day, with
// both edges moved to quiet boundaries.
func (ps *planSpace) window(day time.Time, d, offset time.Duration) (time.Time, time.Time) {
	from := ps.ends.quietBoundary(day.Add(offset), jitterMargin)
	to := ps.ends.quietBoundary(from.Add(d), jitterMargin)
	return from, to
}

// selectivePlans returns n distinct selective plans cycling through the
// four shapes of query_select, drawing days from the first nDays days and
// MOs/sequences from the sample trajectories.
func (ps *planSpace) selectivePlans(n, nDays int) ([]*plan, error) {
	const shapes = 4
	per := n / shapes
	var out []*plan
	for i := 0; len(out) < n; i++ {
		k := (i / shapes) % per
		day := ps.days[ps.stratum(k, per, nDays)]
		var p *plan
		var err error
		switch i % shapes {
		case 0: // which visitors were in this zone during this hour
			cell := ps.cells[k*len(ps.cells)/per]
			from, to := ps.window(day, time.Hour, 9*time.Hour+time.Duration(ps.rng.Intn(8))*time.Hour)
			p, err = newPlan("cell_during", true, false, func(time.Duration) (any, store.Query) {
				node := map[string]any{"cell_during": map[string]string{"cell": cell, "from": ts(from), "to": ts(to)}}
				return node, store.CellDuring(cell, from, to)
			})
		case 1: // who visited this floor on this day
			floor := ps.floors[k%len(ps.floors)]
			from, to := ps.window(day, 24*time.Hour, 0)
			p, err = newPlan("region_floor_day", true, false, func(time.Duration) (any, store.Query) {
				node := map[string]any{"and": []any{regionNode(louvre.LayerFloor, floor), windowNode(from, to)}}
				return node, store.And(store.Region(louvre.LayerFloor, floor), store.TimeOverlap(from, to))
			})
		case 2: // one visitor's trajectories
			t := ps.trajs[ps.stratum(k, per, len(ps.trajs))]
			p, err = newPlan("by_mo", false, false, func(time.Duration) (any, store.Query) {
				return map[string]any{"by_mo": t.MO}, store.ByMO(t.MO)
			})
		case 3: // who walked this three-zone sequence on that visitor's day
			t := ps.trajs[ps.stratum(k, per, len(ps.trajs))]
			cells := t.Trace.Cells()
			if len(cells) < 3 {
				continue
			}
			j := ps.rng.Intn(len(cells) - 2)
			seq := cells[j : j+3]
			from, to := ps.window(t.Start().UTC().Truncate(24*time.Hour), 24*time.Hour, 0)
			p, err = newPlan("through3_day", true, false, func(time.Duration) (any, store.Query) {
				node := map[string]any{"and": []any{map[string]any{"through": seq}, windowNode(from, to)}}
				return node, store.And(store.Through(seq...), store.TimeOverlap(from, to))
			})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// broadPlans returns n base plans cycling through the three shapes of
// query_broad: week-long windows over a wing or a zone, returning full
// trajectories (and one MO-only variant).
func (ps *planSpace) broadPlans(n int) ([]*plan, error) {
	const shapes = 3
	per := n / shapes
	week := 7 * 24 * time.Hour
	var out []*plan
	for i := 0; i < n; i++ {
		k := i / shapes
		var p *plan
		var err error
		from, to := ps.window(ps.days[ps.stratum(k, per, len(ps.days)-7)], week, 0)
		widen := func(jit time.Duration) (time.Time, time.Time) { return from.Add(-jit), to.Add(jit) }
		switch i % shapes {
		case 0:
			wing := ps.wings[k%len(ps.wings)]
			p, err = newPlan("region_wing_week", false, true, func(jit time.Duration) (any, store.Query) {
				f, t := widen(jit)
				node := map[string]any{"and": []any{regionNode(louvre.LayerWing, wing), windowNode(f, t)}}
				return node, store.And(store.Region(louvre.LayerWing, wing), store.TimeOverlap(f, t))
			})
		case 1:
			cell := ps.cells[k*len(ps.cells)/per]
			p, err = newPlan("cell_week", false, true, func(jit time.Duration) (any, store.Query) {
				f, t := widen(jit)
				node := map[string]any{"and": []any{map[string]any{"cell": cell}, windowNode(f, t)}}
				return node, store.And(store.Cell(cell), store.TimeOverlap(f, t))
			})
		case 2:
			wing := ps.wings[(k+1)%len(ps.wings)]
			p, err = newPlan("region_wing_week_mos", true, true, func(jit time.Duration) (any, store.Query) {
				f, t := widen(jit)
				node := map[string]any{"and": []any{regionNode(louvre.LayerWing, wing), windowNode(f, t)}}
				return node, store.And(store.Region(louvre.LayerWing, wing), store.TimeOverlap(f, t))
			})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
