// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each benchmark both measures
// the cost of producing the artefact and asserts its shape, so a behavioural
// regression fails the bench run. Absolute timings are machine-dependent;
// the asserted shapes are not.
package sitm_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"sitm"
)

// benchParams is a reduced-size calibration for per-iteration work; the
// exact §4.1 numbers are exercised once in TestExperimentD1 (facade_test.go)
// and by cmd/sitm stats.
func benchParams() sitm.DatasetParams {
	p := sitm.DefaultDatasetParams()
	p.Visitors = 300
	p.ReturningVisitors = 110
	p.RepeatVisits = 155
	p.TargetDetections = 1880
	return p
}

// BenchmarkTable1Terminology regenerates Table 1: the terminology
// correspondence between the n-intersection model, the primal space, the
// dual space (NRG) and the navigation view.
func BenchmarkTable1Terminology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sitm.Table1()
		if len(rows) != 3 {
			b.Fatalf("Table 1 rows = %d", len(rows))
		}
		if rows[0].DualNavigation != "state" || rows[1].DualNavigation != "transition" {
			b.Fatal("Table 1 content drifted")
		}
	}
}

// BenchmarkFigure1DenonGraph rebuilds the Figure 1 two-level hierarchical
// graph of the central Denon wing and checks its signature properties: the
// 5a/5b/5c subdivision of hall 5 and the Salle des États one-way rule.
func BenchmarkFigure1DenonGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sg, err := sitm.LouvreFigure1()
		if err != nil {
			b.Fatal(err)
		}
		if got := len(sg.ActiveStates("5", "denon1-fine")); got != 3 {
			b.Fatalf("hall 5 splits into %d cells", got)
		}
		if !sg.Accessible("4", "2") || sg.Accessible("2", "4") {
			b.Fatal("Salle des États one-way rule broken")
		}
	}
}

// BenchmarkFigure2Hierarchy rebuilds the full five-layer-plus-zone Louvre
// hierarchy of Figure 2 and §4.2 and revalidates it.
func BenchmarkFigure2Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sg, h, err := sitm.BuildLouvre()
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Validate(sg); err != nil {
			b.Fatal(err)
		}
		if len(h.Layers) != 6 {
			b.Fatalf("hierarchy depth = %d", len(h.Layers))
		}
	}
}

// BenchmarkFigure3Choropleth regenerates the Figure 3 choropleth series:
// visitor detection counts over the 11 ground-floor zones.
func BenchmarkFigure3Choropleth(b *testing.B) {
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	dets := d.Detections()
	ground := make(map[string]bool)
	for _, z := range sitm.LouvreZones() {
		if z.Floor == 0 {
			ground[z.ID] = true
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := sitm.DetectionCounts(dets, func(c string) bool { return ground[c] })
		if len(counts) != 11 {
			b.Fatalf("ground-floor zones with detections = %d, want 11", len(counts))
		}
		for j := 1; j < len(counts); j++ {
			if counts[j].Count > counts[j-1].Count {
				b.Fatal("choropleth not sorted")
			}
		}
	}
}

// BenchmarkFigure4Coverage regenerates the Figure 4 analysis: exhibit RoIs
// do not fully cover their room, while rooms do tile their zone — the
// paper's argument against the full-coverage hypothesis.
func BenchmarkFigure4Coverage(b *testing.B) {
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roi, err := sg.Coverage("room60853_1", 25)
		if err != nil {
			b.Fatal(err)
		}
		room, err := sg.Coverage("zone60853", 25)
		if err != nil {
			b.Fatal(err)
		}
		if roi.Ratio >= 0.9 || room.Ratio < 0.9 {
			b.Fatalf("coverage shape broken: RoIs %.2f, rooms %.2f", roi.Ratio, room.Ratio)
		}
	}
}

// BenchmarkFigure5Episodes regenerates the Figure 5 overlapping episodic
// segmentation: "exit museum" over E→P→S→C and "buy souvenir" over its
// E→P→S prefix.
func BenchmarkFigure5Episodes(b *testing.B) {
	day := time.Date(2017, 2, 14, 17, 0, 0, 0, time.UTC)
	trace := sitm.Trace{
		{Cell: "zone60887", Start: day, End: day.Add(30 * time.Minute)},
		{Transition: "checkpoint002", Cell: "zone60888", Start: day.Add(30 * time.Minute), End: day.Add(32 * time.Minute)},
		{Transition: "passage003", Cell: "zone60890", Start: day.Add(32 * time.Minute), End: day.Add(50 * time.Minute)},
		{Transition: "carrousel-exit", Cell: "zone60891", Start: day.Add(50 * time.Minute), End: day.Add(55 * time.Minute)},
	}
	parent, err := sitm.NewTrajectory("figure5", trace, sitm.NewAnnotations("activity", "visit"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exit, err := sitm.NewEpisode(parent, 1, 4, "exit museum",
			sitm.NewAnnotations("goals", "museumExit"), nil)
		if err != nil {
			b.Fatal(err)
		}
		buy, err := sitm.NewEpisode(parent, 0, 3, "buy souvenir",
			sitm.NewAnnotations("goals", "buySouvenir"), nil)
		if err != nil {
			b.Fatal(err)
		}
		seg := sitm.Segmentation{Parent: parent, Episodes: []sitm.Episode{exit, buy}}
		if err := seg.Validate(); err != nil {
			b.Fatal(err)
		}
		if len(seg.OverlappingPairs()) != 1 {
			b.Fatal("the two goal episodes must overlap in time")
		}
	}
}

// BenchmarkFigure6Inference regenerates the Figure 6 inference: a visitor
// detected in Zone 60887 then Zone 60890 must have passed through Zone
// 60888; an extra tuple is added to the trace.
func BenchmarkFigure6Inference(b *testing.B) {
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	day := time.Date(2017, 2, 14, 17, 0, 0, 0, time.UTC)
	sparse := sitm.Trace{
		{Cell: "zone60887", Start: day, End: day.Add(30*time.Minute + 21*time.Second)},
		{Cell: "zone60890", Start: day.Add(31*time.Minute + 42*time.Second), End: day.Add(40 * time.Minute)},
	}
	extra := sitm.NewAnnotations("goals", "cloakroomPickup", "goals", "souvenirBuy", "goals", "museumExit")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, infs, err := sitm.InferMissing(sg, sparse, extra, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 3 || len(infs) != 1 || out[1].Cell != "zone60888" {
			b.Fatalf("inference shape: %d tuples, %d inferences", len(out), len(infs))
		}
		if out[1].Transition != "checkpoint002" {
			b.Fatalf("inferred transition = %q", out[1].Transition)
		}
	}
}

// BenchmarkDatasetStats regenerates the §4.1 statistics table on a
// reduced-size seeded dataset (exact population identities still hold).
func BenchmarkDatasetStats(b *testing.B) {
	p := benchParams()
	env, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sitm.ComputeDatasetStats(env)
		if s.Visits != p.Visitors+p.RepeatVisits || s.Detections != p.TargetDetections {
			b.Fatalf("stats drifted: %+v", s)
		}
	}
}

// BenchmarkEventSplit measures the §3.3 event-based interval split (the
// room006 goal-change example).
func BenchmarkEventSplit(b *testing.B) {
	day := time.Date(2017, 2, 14, 14, 12, 0, 0, time.UTC)
	tr := sitm.Trace{{
		Transition: "door005", Cell: "room006",
		Start: day, End: day.Add(16 * time.Minute),
		Ann: sitm.NewAnnotations("goals", "visit"),
	}}
	after := sitm.NewAnnotations("goals", "visit", "goals", "buy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := tr.SplitAt(0, day.Add(9*time.Minute+46*time.Second), after)
		if err != nil || len(out) != 2 {
			b.Fatalf("split: %v, %d tuples", err, len(out))
		}
	}
}

// BenchmarkRollupAblation measures the §3.2 claim that one dataset serves
// multiple granularities: the same zone-level trajectories are mined at
// zone level and, after roll-up, at floor and wing level.
func BenchmarkRollupAblation(b *testing.B) {
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	if len(trajs) == 0 {
		b.Fatal("no trajectories")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zonePatterns := sitm.PrefixSpan(sitm.SequencesOf(trajs), len(trajs)/10, 3)
		floorTrajs := make([]sitm.Trajectory, 0, len(trajs))
		for _, t := range trajs {
			up, err := t.RollUp(sg, sitm.LouvreFloorLayer)
			if err != nil {
				b.Fatal(err)
			}
			floorTrajs = append(floorTrajs, up)
		}
		floorPatterns := sitm.PrefixSpan(sitm.SequencesOf(floorTrajs), len(trajs)/10, 3)
		if len(zonePatterns) == 0 || len(floorPatterns) == 0 {
			b.Fatal("patterns vanished")
		}
		// Floor-level mining runs over a far coarser alphabet.
		if len(floorAlphabet(floorTrajs)) >= len(floorAlphabet(trajs)) {
			b.Fatal("roll-up did not coarsen the alphabet")
		}
	}
}

func floorAlphabet(trajs []sitm.Trajectory) map[string]bool {
	set := make(map[string]bool)
	for _, t := range trajs {
		for _, c := range t.Trace.DistinctCells() {
			set[c] = true
		}
	}
	return set
}

// BenchmarkDirectedAblation contrasts the paper's directed accessibility
// NRGs against an undirected reading: paths legal in the undirected view
// (re-entering through the Carrousel exit, entering the Salle des États
// from room 2) are illegal in the directed model.
func BenchmarkDirectedAblation(b *testing.B) {
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	fig1, err := sitm.LouvreFigure1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		directed, err := sg.AccessGraph(sitm.LouvreZoneLayer)
		if err != nil {
			b.Fatal(err)
		}
		undirected := directed.Undirected()
		if _, err := directed.ShortestPath("zone60891", "zone60890"); err == nil {
			b.Fatal("directed model must forbid re-entry through the exit")
		}
		if _, err := undirected.ShortestPath("zone60891", "zone60890"); err != nil {
			b.Fatal("undirected model would (wrongly) allow it")
		}
		if fig1.Accessible("2", "4") {
			b.Fatal("one-way room rule lost")
		}
	}
}

// ---- Performance benches on the substrates ------------------------------

// BenchmarkBuildLouvre measures constructing the full ~750-cell model.
func BenchmarkBuildLouvre(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sitm.BuildLouvre(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateDataset measures the seeded generator.
func BenchmarkGenerateDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sitm.GenerateLouvreDataset(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTrajectories measures detection→trajectory extraction.
func BenchmarkBuildTrajectories(b *testing.B) {
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	dets := d.Detections()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trajs, _ := sitm.BuildTrajectories(dets, sitm.BuildOptions{
			DropZeroDuration: true, SessionGap: 10 * time.Hour,
		})
		if len(trajs) == 0 {
			b.Fatal("no trajectories")
		}
	}
}

// BenchmarkTrilateration measures one positioning solve against the
// Louvre's beacon plant.
func BenchmarkTrilateration(b *testing.B) {
	beacons := sitm.LouvreBeacons()
	model := sitm.PathLoss{Exponent: 2.2}
	// Strongest few beacons around a point in zone 60853.
	var meas []sitm.Measurement
	for id, bc := range beacons {
		if strings.HasPrefix(id, "beacon60853_") {
			d := bc.Pos.Dist(sitm.Point{X: 330, Y: 30})
			meas = append(meas, sitm.Measurement{BeaconID: id, RSSI: model.RSSI(bc, d, nil)})
			if len(meas) == 8 {
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sitm.Trilaterate(beacons, meas, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefixSpan measures sequential pattern mining on the synthetic
// visit sequences.
func BenchmarkPrefixSpan(b *testing.B) {
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	seqs := sitm.SequencesOf(trajs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sitm.PrefixSpan(seqs, len(seqs)/20, 4); len(got) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkStoreQueries measures the indexed store queries.
func BenchmarkStoreQueries(b *testing.B) {
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	st := sitm.NewStore()
	st.PutAll(trajs)
	from := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ThroughCell("zone60879")
		st.InCellDuring("zone60885", from, to)
		st.Overlapping(from, to)
	}
}

// ---- Analytics-engine before/after benches (DESIGN.md §4, E-series) -----

// benchStore loads a seeded dataset into a store and returns it with its
// trajectories. At 450 trajectories every shard holds less than one
// 1024-row zone map, so the zone-pruned queries below test every row
// whatever the insertion order.
func benchStore(b *testing.B) (*sitm.Store, []sitm.Trajectory) {
	b.Helper()
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	st := sitm.NewStore()
	st.PutAll(trajs)
	return st, trajs
}

// benchWindow is a narrow one-day window inside the dataset's span — the
// selective query shape time pruning exists for.
func benchWindow() (time.Time, time.Time) {
	from := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	return from, from.AddDate(0, 0, 1)
}

// BenchmarkStoreOverlappingScan is the seed's implementation of
// Overlapping: a linear scan over every stored trajectory. Kept as the
// "before" baseline for BenchmarkStoreOverlappingIndexed.
func BenchmarkStoreOverlappingScan(b *testing.B) {
	st, _ := benchStore(b)
	all := st.All()
	from, to := benchWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []sitm.Trajectory
		for _, t := range all {
			if !t.Start().After(to) && !t.End().Before(from) {
				out = append(out, t)
			}
		}
		if len(out) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkStoreOverlappingIndexed measures the zone-pruned query on the
// same window: zones the window misses are skipped, the rest are tested
// row by row. Here each shard is a single partial zone (see benchStore),
// so this times the planner plus a full row scan — the zone maps'
// granularity floor, not their pruning.
func BenchmarkStoreOverlappingIndexed(b *testing.B) {
	st, _ := benchStore(b)
	from, to := benchWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := st.Overlapping(from, to); len(out) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkStoreInCellDuringScan is the seed's InCellDuring: walk the
// cell's posting list and scan every presence interval of every candidate.
func BenchmarkStoreInCellDuringScan(b *testing.B) {
	st, _ := benchStore(b)
	cellTrajs := st.ThroughCell("zone60885")
	from, to := benchWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[string]bool)
		for _, t := range cellTrajs {
			if seen[t.MO] {
				continue
			}
			for _, p := range t.Trace {
				if p.Cell == "zone60885" && !p.Start.After(to) && !p.End.Before(from) {
					seen[t.MO] = true
					break
				}
			}
		}
	}
}

// BenchmarkStoreInCellDuringIndexed measures the zone-pruned posting walk
// behind InCellDuring (bloom and time zone skips, span check first).
func BenchmarkStoreInCellDuringIndexed(b *testing.B) {
	st, _ := benchStore(b)
	from, to := benchWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.InCellDuring("zone60885", from, to)
	}
}

// ---- E5: sustained mixed write/query throughput (DESIGN.md §3.5) --------

// e5Params sizes the 10k-trajectory dataset of the acceptance criterion.
func e5Params() sitm.DatasetParams {
	p := sitm.DefaultDatasetParams()
	p.Visitors = 6800
	p.ReturningVisitors = 2600
	p.RepeatVisits = 3500
	p.TargetDetections = 42000
	return p
}

// e5Trajectories builds the 10k-trajectory working set once per bench
// binary run.
var e5Cache []sitm.Trajectory

func e5Trajectories(b testing.TB) []sitm.Trajectory {
	b.Helper()
	if e5Cache == nil {
		d, _, err := sitm.GenerateLouvreDataset(e5Params())
		if err != nil {
			b.Fatal(err)
		}
		trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
			DropZeroDuration: true, SessionGap: 10 * time.Hour,
		})
		if len(trajs) < 10000 {
			b.Fatalf("E5 dataset has %d trajectories, want ≥10000", len(trajs))
		}
		e5Cache = trajs
	}
	return e5Cache
}

// e5Rounds is the per-iteration mixed workload: rounds of a small write
// burst followed by interleaved temporal queries — the serving pattern of
// a live ingestion feed with concurrent analytics.
const (
	e5Rounds     = 20
	e5BurstSize  = 10
	e5QueriesPer = 6
)

// e5Windows returns narrow one-day query windows spread over the dataset.
func e5Window(i int) (time.Time, time.Time) {
	from := time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i%90)
	return from, from.AddDate(0, 0, 1)
}

// rebuildStore replicates the seed's index discipline: any write marks the
// interval indexes dirty and the next temporal query pays a full
// O(n log n) rebuild (sort every trajectory span and every per-cell
// presence interval). It is the "before" of E5.
type rebuildStore struct {
	trajs []sitm.Trajectory
	dirty bool
	spans []e5Span            // sorted by start once rebuilt
	cells map[string][]e5Span // sorted per cell once rebuilt
}

type e5Span struct {
	start, end time.Time
	ref        int
}

func (rs *rebuildStore) put(ts ...sitm.Trajectory) {
	rs.trajs = append(rs.trajs, ts...)
	rs.dirty = true
}

func (rs *rebuildStore) rebuild() {
	rs.spans = rs.spans[:0]
	rs.cells = make(map[string][]e5Span)
	for i, t := range rs.trajs {
		rs.spans = append(rs.spans, e5Span{t.Start(), t.End(), i})
		for _, p := range t.Trace {
			rs.cells[p.Cell] = append(rs.cells[p.Cell], e5Span{p.Start, p.End, i})
		}
	}
	sortSpans(rs.spans)
	for _, sp := range rs.cells {
		sortSpans(sp)
	}
	rs.dirty = false
}

func sortSpans(sp []e5Span) {
	sort.Slice(sp, func(i, j int) bool { return sp[i].start.Before(sp[j].start) })
}

func (rs *rebuildStore) overlapping(from, to time.Time) int {
	if rs.dirty {
		rs.rebuild()
	}
	return scanSpans(rs.spans, from, to)
}

// inCellDuring counts distinct MOs (matching Store.InCellDuring).
func (rs *rebuildStore) inCellDuring(cell string, from, to time.Time) int {
	if rs.dirty {
		rs.rebuild()
	}
	sp := rs.cells[cell]
	hi := sort.Search(len(sp), func(i int) bool { return sp[i].start.After(to) })
	seen := make(map[string]bool)
	for _, s := range sp[:hi] {
		if !s.end.Before(from) {
			seen[rs.trajs[s.ref].MO] = true
		}
	}
	return len(seen)
}

// scanSpans counts matches over the sorted prefix with start ≤ to.
func scanSpans(sp []e5Span, from, to time.Time) int {
	hi := sort.Search(len(sp), func(i int) bool { return sp[i].start.After(to) })
	n := 0
	for _, s := range sp[:hi] {
		if !s.end.Before(from) {
			n++
		}
	}
	return n
}

// BenchmarkStoreMixedRebuild (E5 before): the seed discipline on the mixed
// workload — every write burst invalidates everything, every following
// query rebuilds 10k trajectory spans plus ~40k per-cell intervals.
func BenchmarkStoreMixedRebuild(b *testing.B) {
	trajs := e5Trajectories(b)
	preload, stream := trajs[:9000], trajs[9000:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs := &rebuildStore{}
		rs.put(preload...)
		rs.rebuild()
		b.StartTimer()
		w := e5Workload(stream,
			func(ts []sitm.Trajectory) { rs.put(ts...) },
			rs.overlapping, rs.inCellDuring)
		if w == 0 {
			b.Fatal("queries matched nothing")
		}
	}
}

// BenchmarkStoreMixedIncremental (E5 after): the same mixed workload on
// the store — PutBatch appends bursts and extends the zone maps, queries
// never rebuild. The acceptance criterion is ≥5× over the rebuild
// baseline; TestE5IncrementalBeatsRebuild enforces it in tier-1.
func BenchmarkStoreMixedIncremental(b *testing.B) {
	trajs := e5Trajectories(b)
	preload, stream := trajs[:9000], trajs[9000:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sitm.NewStore()
		st.PutAll(preload)
		b.StartTimer()
		w := e5Workload(stream,
			st.PutBatch,
			func(from, to time.Time) int { return len(st.Overlapping(from, to)) },
			func(cell string, from, to time.Time) int { return len(st.InCellDuring(cell, from, to)) })
		if w == 0 {
			b.Fatal("queries matched nothing")
		}
	}
}

// e5Workload drives one full mixed write/query pass (the E5 iteration
// body) against either store flavour via the two closures.
func e5Workload(stream []sitm.Trajectory, put func([]sitm.Trajectory), overlapping func(time.Time, time.Time) int, inCell func(string, time.Time, time.Time) int) int {
	w := 0
	for r := 0; r < e5Rounds; r++ {
		burst := stream[(r*e5BurstSize)%len(stream):]
		if len(burst) > e5BurstSize {
			burst = burst[:e5BurstSize]
		}
		put(burst)
		for q := 0; q < e5QueriesPer; q++ {
			from, to := e5Window(r*e5QueriesPer + q)
			if q%2 == 0 {
				w += overlapping(from, to)
			} else {
				w += inCell("zone60885", from, to)
			}
		}
	}
	return w
}

// TestE5IncrementalBeatsRebuild enforces the E5 acceptance criterion in
// tier-1: on the 10k-trajectory mixed write/query workload, the store's
// zone-mapped appends must beat the seed's full-rebuild discipline by ≥5×
// (in practice the gap is one to two orders of magnitude; 5× leaves slack
// for noisy CI machines).
func TestE5IncrementalBeatsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E5 workload")
	}
	trajs := e5Trajectories(t)
	preload, stream := trajs[:9000], trajs[9000:]

	rs := &rebuildStore{}
	rs.put(preload...)
	rs.rebuild()
	startRebuild := time.Now()
	wRebuild := e5Workload(stream,
		func(ts []sitm.Trajectory) { rs.put(ts...) },
		rs.overlapping, rs.inCellDuring)
	rebuildDur := time.Since(startRebuild)

	// Best of three for the incremental side to shave scheduler noise off
	// the fast path (the slow path dominates the ratio either way).
	var incDur time.Duration
	wInc := 0
	for rep := 0; rep < 3; rep++ {
		st := sitm.NewStore()
		st.PutAll(preload)
		start := time.Now()
		wInc = e5Workload(stream,
			st.PutBatch,
			func(from, to time.Time) int { return len(st.Overlapping(from, to)) },
			func(cell string, from, to time.Time) int { return len(st.InCellDuring(cell, from, to)) })
		if d := time.Since(start); rep == 0 || d < incDur {
			incDur = d
		}
	}

	if wRebuild != wInc {
		t.Fatalf("workloads disagree: rebuild saw %d matches, incremental %d", wRebuild, wInc)
	}
	if wInc == 0 {
		t.Fatal("workload matched nothing")
	}
	if incDur*5 > rebuildDur {
		t.Fatalf("incremental %v not ≥5x faster than rebuild %v (%.1fx)",
			incDur, rebuildDur, float64(rebuildDur)/float64(incDur))
	}
	t.Logf("E5: rebuild %v, incremental %v (%.0fx)", rebuildDur, incDur, float64(rebuildDur)/float64(incDur))
}

// ---- E6: interned vs legacy profiling pipeline (DESIGN.md §3.6) ----------

// e6Params sizes the 1k-trajectory dataset of the E6 acceptance criterion
// (scaled from the §4.1 calibration like E5's 10k variant).
func e6Params() sitm.DatasetParams {
	p := sitm.DefaultDatasetParams()
	p.Visitors = 680
	p.ReturningVisitors = 260
	p.RepeatVisits = 360
	p.TargetDetections = 4300
	return p
}

// e6Cache holds the 1k-trajectory working set, built once per binary run.
var e6Cache []sitm.Trajectory

func e6Trajectories(b testing.TB) []sitm.Trajectory {
	b.Helper()
	if e6Cache == nil {
		d, _, err := sitm.GenerateLouvreDataset(e6Params())
		if err != nil {
			b.Fatal(err)
		}
		trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
			DropZeroDuration: true, SessionGap: 10 * time.Hour,
		})
		if len(trajs) < 1000 {
			b.Fatalf("E6 dataset has %d trajectories, want ≥1000", len(trajs))
		}
		e6Cache = trajs[:1000]
	}
	return e6Cache
}

const (
	e6K             = 8
	e6Seed          = 7
	e6SpatialWeight = 0.7
)

// e6Hierarchy builds the Louvre model once for the E6 cell kernel.
func e6Hierarchy(b testing.TB) sitm.CellSimilarity {
	b.Helper()
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	return sitm.HierarchyCellSimilarity(sg, h)
}

// legacyE6DTW is the seed's DTW: full 2-D DP allocated per pair, the cell
// kernel re-evaluated for every (i, j) position pair.
func legacyE6DTW(a, b []string, sim sitm.CellSimilarity) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		return 0
	}
	const inf = 1 << 30
	type cell struct {
		cost float64
		len  int
	}
	dp := make([][]cell, len(a)+1)
	for i := range dp {
		dp[i] = make([]cell, len(b)+1)
		for j := range dp[i] {
			dp[i][j] = cell{cost: inf}
		}
	}
	dp[0][0] = cell{}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			local := 1 - sim(a[i-1], b[j-1])
			best := dp[i-1][j-1]
			if dp[i-1][j].cost < best.cost {
				best = dp[i-1][j]
			}
			if dp[i][j-1].cost < best.cost {
				best = dp[i][j-1]
			}
			dp[i][j] = cell{cost: best.cost + local, len: best.len + 1}
		}
	}
	end := dp[len(a)][len(b)]
	if end.len == 0 {
		return 0
	}
	s := 1 - end.cost/float64(end.len)
	if s < 0 {
		return 0
	}
	return s
}

// legacyE6TrajSim is the seed's combined kernel: string DTW + map-built
// annotation Jaccard, per pair.
func legacyE6TrajSim(a, b sitm.Trajectory, sim sitm.CellSimilarity, w float64) float64 {
	spatial := legacyE6DTW(a.Trace.Cells(), b.Trace.Cells(), sim)
	semantic := a.Ann.Jaccard(b.Ann)
	return w*spatial + (1-w)*semantic
}

// legacyE6KMedoidsMatrix is the seed's PAM refinement: a full O(n·k)
// reassignment per candidate swap and a linear medoid-membership scan.
func legacyE6KMedoidsMatrix(sim [][]float64, k int, seed int64) sitm.Clusters {
	n := len(sim)
	if k <= 0 || n == 0 {
		return sitm.Clusters{}
	}
	if k > n {
		k = n
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 1 - sim[i][j]
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	medoids := rng.Perm(n)[:k]
	sort.Ints(medoids)
	assign := make([]int, n)
	assignAll := func() float64 {
		var total float64
		for i := 0; i < n; i++ {
			best, bestD := 0, dist[i][medoids[0]]
			for c := 1; c < k; c++ {
				if d := dist[i][medoids[c]]; d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			total += bestD
		}
		return total
	}
	contains := func(xs []int, x int) bool {
		for _, v := range xs {
			if v == x {
				return true
			}
		}
		return false
	}
	cost := assignAll()
	for iter := 0; iter < 50; iter++ {
		improved := false
		for c := 0; c < k; c++ {
			for cand := 0; cand < n; cand++ {
				if contains(medoids, cand) {
					continue
				}
				old := medoids[c]
				medoids[c] = cand
				if newCost := assignAll(); newCost < cost-1e-12 {
					cost = newCost
					improved = true
				} else {
					medoids[c] = old
				}
			}
		}
		if !improved {
			break
		}
	}
	assignAll()
	return sitm.Clusters{Medoids: medoids, Assign: assign}
}

// e6Legacy runs the seed-discipline profiling pipeline: parallel pairwise
// matrix over the string kernel, then the naive PAM.
func e6Legacy(trajs []sitm.Trajectory, sim sitm.CellSimilarity) ([][]float64, sitm.Clusters) {
	m := sitm.SimilarityMatrix(trajs, func(a, b sitm.Trajectory) float64 {
		return legacyE6TrajSim(a, b, sim, e6SpatialWeight)
	})
	return m, legacyE6KMedoidsMatrix(m, e6K, e6Seed)
}

// e6Interned runs the same pipeline on the interned engine: corpus +
// precomputed cell table + flat-scratch kernels + cached-distance PAM.
func e6Interned(trajs []sitm.Trajectory, sim sitm.CellSimilarity) ([][]float64, sitm.Clusters) {
	c := sitm.NewSimilarityCorpus(trajs)
	m := c.PairwiseMatrix(c.CellTable(sim), e6SpatialWeight)
	return m, sitm.KMedoidsMatrix(m, e6K, e6Seed)
}

// BenchmarkE6LegacyProfiling (E6 before): 1000 trajectories, hierarchy
// kernel re-walked per cell-position pair inside every trajectory pair's
// DTW, 2-D DP and Jaccard maps allocated per pair, O(n²k) PAM sweeps.
func BenchmarkE6LegacyProfiling(b *testing.B) {
	trajs := e6Trajectories(b)
	sim := e6Hierarchy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cl := e6Legacy(trajs, sim); len(cl.Medoids) != e6K {
			b.Fatal("clustering collapsed")
		}
	}
}

// BenchmarkE6InternedProfiling (E6 after): the same inputs and bit-for-bit
// the same outputs over the interned analytics core.
func BenchmarkE6InternedProfiling(b *testing.B) {
	trajs := e6Trajectories(b)
	sim := e6Hierarchy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cl := e6Interned(trajs, sim); len(cl.Medoids) != e6K {
			b.Fatal("clustering collapsed")
		}
	}
}

// TestE6InternedBeatsLegacy enforces the E6 acceptance criterion in
// tier-1: on the 1k-trajectory profiling pipeline (pairwise similarity
// matrix + k-medoids), the interned engine must be ≥5× faster than the
// legacy string path — and produce bit-for-bit identical output: the two
// matrices compare equal with ==, and the clusterings are identical.
func TestE6InternedBeatsLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E6 workload")
	}
	trajs := e6Trajectories(t)
	sim := e6Hierarchy(t)

	startLegacy := time.Now()
	legacyM, legacyCl := e6Legacy(trajs, sim)
	legacyDur := time.Since(startLegacy)

	// Best of three for the fast side (the slow side dominates the ratio).
	var internedDur time.Duration
	var internedM [][]float64
	var internedCl sitm.Clusters
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		internedM, internedCl = e6Interned(trajs, sim)
		if d := time.Since(start); rep == 0 || d < internedDur {
			internedDur = d
		}
	}

	for i := range legacyM {
		for j := range legacyM[i] {
			if legacyM[i][j] != internedM[i][j] {
				t.Fatalf("matrix diverged at (%d, %d): legacy %v, interned %v (must be bit-identical)",
					i, j, legacyM[i][j], internedM[i][j])
			}
		}
	}
	for i := range legacyCl.Medoids {
		if legacyCl.Medoids[i] != internedCl.Medoids[i] {
			t.Fatalf("medoids diverged: legacy %v, interned %v", legacyCl.Medoids, internedCl.Medoids)
		}
	}
	for i := range legacyCl.Assign {
		if legacyCl.Assign[i] != internedCl.Assign[i] {
			t.Fatalf("assignment diverged at %d", i)
		}
	}
	if internedDur*5 > legacyDur {
		t.Fatalf("interned %v not ≥5x faster than legacy %v (%.1fx)",
			internedDur, legacyDur, float64(legacyDur)/float64(internedDur))
	}
	t.Logf("E6: legacy %v, interned %v (%.0fx)", legacyDur, internedDur, float64(legacyDur)/float64(internedDur))
}

// ---- E7 facade view: the storage → analytics handoff ---------------------
// (The full concurrent mixed workload and its enforced ≥3× criterion live
// in internal/store; these two show the handoff itself at the public API.)

// BenchmarkStoreCorpusRebuild is the pre-handoff path: copy the store out
// and re-intern every trajectory into a fresh corpus.
func BenchmarkStoreCorpusRebuild(b *testing.B) {
	st, _ := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := sitm.NewSimilarityCorpus(st.All()); c.Len() == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkStoreCorpusHandoff is Store.Corpus: the write-time encodings
// are handed to the similarity engine with zero re-interning.
func BenchmarkStoreCorpusHandoff(b *testing.B) {
	st, _ := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := st.Corpus(); c.Len() == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkStoreSequencesHandoff is Store.Sequences feeding PrefixSpan
// without re-encoding (the mining side of E7).
func BenchmarkStoreSequencesHandoff(b *testing.B) {
	st, _ := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict, seqs := st.Sequences()
		if got := sitm.PrefixSpanInterned(dict, seqs, len(seqs)/20, 4); len(got) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// benchSimilaritySample returns a fixed-size trajectory sample and the
// hierarchy-aware kernel for the pairwise benches.
func benchSimilaritySample(b *testing.B, n int) ([]sitm.Trajectory, func(a, x sitm.Trajectory) float64) {
	b.Helper()
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	if len(trajs) < n {
		b.Fatalf("only %d trajectories", len(trajs))
	}
	sim := sitm.HierarchyCellSimilarity(sg, h)
	return trajs[:n], func(a, x sitm.Trajectory) float64 {
		return sitm.TrajectorySimilarity(a, x, sim, 0.7)
	}
}

// BenchmarkSimilarityMatrixSequentialFull is the seed's pairwise pattern:
// every ordered pair (i, j), i ≠ j, evaluated one after another — exactly
// the matrix loop the seed's KMedoids ran.
func BenchmarkSimilarityMatrixSequentialFull(b *testing.B) {
	trajs, simFn := benchSimilaritySample(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := len(trajs)
		m := make([][]float64, n)
		for r := range m {
			m[r] = make([]float64, n)
			for c := range m[r] {
				if r != c {
					m[r][c] = simFn(trajs[r], trajs[c])
				}
			}
		}
	}
}

// BenchmarkSimilarityMatrixParallel measures SimilarityMatrix: upper
// triangle only (half the kernel calls), fanned out over the worker pool.
func BenchmarkSimilarityMatrixParallel(b *testing.B) {
	trajs, simFn := benchSimilaritySample(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sitm.SimilarityMatrix(trajs, simFn)
	}
}

// BenchmarkKMedoidsClustering measures end-to-end visitor profiling on the
// parallel engine: parallel matrix + PAM refinement.
func BenchmarkKMedoidsClustering(b *testing.B) {
	trajs, simFn := benchSimilaritySample(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cl := sitm.KMedoids(trajs, 4, simFn, 7); len(cl.Medoids) != 4 {
			b.Fatal("clustering collapsed")
		}
	}
}

// BenchmarkKMedoidsMatrixReuse measures clustering when the matrix is
// precomputed once and reused — the sweep-over-k workflow.
func BenchmarkKMedoidsMatrixReuse(b *testing.B) {
	trajs, simFn := benchSimilaritySample(b, 60)
	m := sitm.SimilarityMatrix(trajs, simFn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cl := sitm.KMedoidsMatrix(m, 4, 7); len(cl.Medoids) != 4 {
			b.Fatal("clustering collapsed")
		}
	}
}

// BenchmarkTrajectorySimilarity measures the hierarchy-aware similarity.
func BenchmarkTrajectorySimilarity(b *testing.B) {
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := sitm.GenerateLouvreDataset(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, SessionGap: 10 * time.Hour,
	})
	if len(trajs) < 2 {
		b.Fatal("need trajectories")
	}
	sim := sitm.HierarchyCellSimilarity(sg, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sitm.TrajectorySimilarity(trajs[i%len(trajs)], trajs[(i+1)%len(trajs)], sim, 0.7)
	}
}
