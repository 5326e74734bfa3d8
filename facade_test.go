package sitm_test

import (
	"testing"
	"time"

	"sitm"
)

// TestPublicAPIQuickstart exercises the documented quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(sg); err != nil {
		t.Fatal(err)
	}
	p := sitm.DefaultDatasetParams()
	p.Visitors = 50
	p.ReturningVisitors = 10
	p.RepeatVisits = 12
	p.TargetDetections = 260
	d, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	trajs, stats := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})
	if stats.Trajectories == 0 {
		t.Fatal("no trajectories")
	}
	for _, tr := range trajs {
		if err := tr.ValidateAgainst(sg, sitm.LouvreZoneLayer, false); err != nil {
			t.Fatal(err)
		}
	}
	st := sitm.NewStore()
	st.PutBatch(trajs)
	if st.Len() != len(trajs) {
		t.Fatal("store lost trajectories")
	}
}

// TestExperimentD1 reproduces the §4.1 statistics table at full scale
// through the public API (experiment D1 of DESIGN.md).
func TestExperimentD1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale D1 skipped in -short mode")
	}
	d, _, err := sitm.GenerateLouvreDataset(sitm.DefaultDatasetParams())
	if err != nil {
		t.Fatal(err)
	}
	s := sitm.ComputeDatasetStats(d)
	checks := []struct {
		name  string
		got   int
		want  int
		exact bool
	}{
		{"visits", s.Visits, 4945, true},
		{"visitors", s.Visitors, 3228, true},
		{"returning visitors", s.ReturningVisitors, 1227, true},
		{"repeat visits", s.RepeatVisits, 1717, true},
		{"zone detections", s.Detections, 20245, true},
		{"transitions", s.Transitions, 15300, true},
	}
	for _, c := range checks {
		if c.exact && c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if s.MaxVisitDuration != 7*time.Hour+41*time.Minute+37*time.Second {
		t.Errorf("max visit duration = %v", s.MaxVisitDuration)
	}
	if s.MaxDetectionDuration != 5*time.Hour+39*time.Minute+20*time.Second {
		t.Errorf("max detection duration = %v", s.MaxDetectionDuration)
	}
	if s.ZeroDurationPercent < 8 || s.ZeroDurationPercent > 12 {
		t.Errorf("zero-duration %% = %.1f", s.ZeroDurationPercent)
	}
}

// TestEndToEndMiningPipeline runs the full documented analytics pipeline on
// a seeded dataset: generate → clean → build → validate → mine → profile.
func TestEndToEndMiningPipeline(t *testing.T) {
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		t.Fatal(err)
	}
	p := sitm.DefaultDatasetParams()
	p.Visitors = 150
	p.ReturningVisitors = 50
	p.RepeatVisits = 70
	p.TargetDetections = 900
	d, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})

	// Figure 3 series.
	ground := make(map[string]bool)
	for _, z := range sitm.LouvreZones() {
		if z.Floor == 0 {
			ground[z.ID] = true
		}
	}
	counts := sitm.DetectionCounts(d.Detections(), func(c string) bool { return ground[c] })
	if len(counts) != 11 {
		t.Errorf("choropleth zones = %d", len(counts))
	}

	// Transition model predicts something from the entrance.
	tm := sitm.NewTransitionMatrix(trajs)
	if _, _, ok := tm.PredictNext("zone60885"); !ok {
		t.Error("no prediction from the Pyramid Hall")
	}

	// Sequential patterns + rules.
	pats := sitm.PrefixSpan(sitm.SequencesOf(trajs), len(trajs)/10, 3)
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	_ = sitm.MineRules(pats, 0.3)

	// Floor switching (§5) after roll-up.
	switches, err := sitm.FloorSwitches(sg, trajs, sitm.LouvreFloorLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(switches) == 0 {
		t.Error("no floor switches observed")
	}

	// Visitor profiling on a sample.
	sample := trajs
	if len(sample) > 40 {
		sample = sample[:40]
	}
	sim := sitm.HierarchyCellSimilarity(sg, h)
	cl := sitm.KMedoids(sample, 3, func(a, b sitm.Trajectory) float64 {
		return sitm.TrajectorySimilarity(a, b, sim, 0.8)
	}, 7)
	if len(cl.Medoids) != 3 {
		t.Errorf("medoids = %v", cl.Medoids)
	}

	// Length of stay exists for the Mona Lisa zone.
	stays := sitm.LengthOfStay(trajs)
	found := false
	for _, s := range stays {
		if s.Cell == "zone60879" {
			found = true
			break
		}
	}
	if !found {
		t.Error("Salle des États never visited — weighting broken?")
	}
}

// TestPublicAPISemanticQueries exercises the semantic query planner facade
// end-to-end on the Louvre model: compile the hierarchy, attach it to a
// store, and run composed region/annotation/time plans plus region-level
// mining.
func TestPublicAPISemanticQueries(t *testing.T) {
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sitm.CompileRegions(sg, h)
	if err != nil {
		t.Fatal(err)
	}
	p := sitm.DefaultDatasetParams()
	p.Visitors, p.ReturningVisitors, p.RepeatVisits = 50, 10, 12
	p.TargetDetections = 260
	d, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})
	st := sitm.NewStore()
	st.PutBatch(trajs)
	st.AttachRegions(rt)

	// Region roll-up query: everyone in the Denon wing is also in the
	// museum; a wing visit implies a museum visit, never the reverse.
	denon, err := st.Select(sitm.QRegion(sitm.LouvreWingLayer, "denon"))
	if err != nil {
		t.Fatal(err)
	}
	museum, err := st.Select(sitm.QRegion(sitm.LouvreMuseumLayer, "louvre"))
	if err != nil {
		t.Fatal(err)
	}
	if len(denon) == 0 || len(museum) < len(denon) {
		t.Fatalf("denon %d, museum %d", len(denon), len(museum))
	}

	// Composed plan: wing + time window + annotation.
	if _, err := st.Select(sitm.QAnd(
		sitm.QRegion(sitm.LouvreWingLayer, "denon"),
		sitm.QTimeOverlap(trajs[0].Start(), trajs[0].End()),
		sitm.QHasAnnotation("activity", "visit"),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SelectMOs(sitm.QOr(
		sitm.QRegion(sitm.LouvreWingLayer, "sully"),
		sitm.QThroughRegions(
			sitm.RegionRef{Layer: sitm.LouvreWingLayer, ID: "napoleon"},
			sitm.RegionRef{Layer: sitm.LouvreWingLayer, ID: "denon"},
		),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Select(sitm.QRegion("Ghost", "x")); err == nil {
		t.Fatal("unknown region layer must error")
	}

	// Region-level mining off the store handoff: wing-granularity patterns.
	dict, seqs := st.Sequences()
	pats, err := sitm.PrefixSpanRegions(dict, seqs, rt, sitm.LouvreWingLayer, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no wing-level patterns")
	}
}

// TestPublicAPIDurableStore exercises the documented durability path:
// OpenStore → writes → Sync → crash-free reopen → Checkpoint → reopen
// from segments, observably the same store throughout.
func TestPublicAPIDurableStore(t *testing.T) {
	dir := t.TempDir()
	p := sitm.DefaultDatasetParams()
	p.Visitors = 30
	p.ReturningVisitors = 5
	p.RepeatVisits = 6
	p.TargetDetections = 150
	d, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	trajs, _ := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})

	st, err := sitm.OpenStore(dir, sitm.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.PutBatch(trajs)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	stats, ok := st.Durability()
	if !ok || stats.Dir != dir {
		t.Fatalf("Durability = %+v, %v", stats, ok)
	}
	want := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = sitm.OpenStore(dir, sitm.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != want {
		t.Fatalf("reopen lost trajectories: %d vs %d", st.Len(), want)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = sitm.OpenStore(dir, sitm.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != want {
		t.Fatalf("post-checkpoint reopen lost trajectories: %d vs %d", st.Len(), want)
	}
}
