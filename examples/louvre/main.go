// Louvre end-to-end: the paper's full case study (§4) in one program.
// Builds the six-layer Louvre space graph, generates a seeded synthetic
// visitor dataset calibrated to the published §4.1 marginals (scaled down
// for a quick run), cleans and extracts semantic trajectories, validates
// them against the zone topology, reproduces the Figure 3 choropleth and
// the Figure 6 inference, mines patterns, and profiles visitors.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"sitm"
)

func main() {
	// --- Space model (§4.2). --------------------------------------------
	sg, hierarchy, err := sitm.BuildLouvre()
	if err != nil {
		log.Fatal(err)
	}
	if err := hierarchy.Validate(sg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Louvre model: %d cells across %d layers (hierarchy %v)\n",
		sg.NumCells(), len(hierarchy.Layers), hierarchy.Layers)

	// --- Synthetic dataset (substitute for the proprietary logs). -------
	p := sitm.DefaultDatasetParams()
	p.Visitors, p.ReturningVisitors, p.RepeatVisits = 323, 123, 172
	p.TargetDetections = 2024
	dataset, _, err := sitm.GenerateLouvreDataset(p)
	if err != nil {
		log.Fatal(err)
	}
	stats := sitm.ComputeDatasetStats(dataset)
	fmt.Printf("dataset: %d visits, %d visitors (%d returning), %d detections, %.1f%% zero-duration\n",
		stats.Visits, stats.Visitors, stats.ReturningVisitors, stats.Detections, stats.ZeroDurationPercent)

	// --- Cleaning + trajectory extraction (§4.2). ------------------------
	trajs, bstats := sitm.BuildTrajectories(dataset.Detections(), sitm.BuildOptions{
		DropZeroDuration: true, // the paper drops ~10% detection errors
		SessionGap:       10 * time.Hour,
	})
	fmt.Printf("extracted %d semantic trajectories (%d error detections dropped)\n",
		bstats.Trajectories, bstats.DroppedZero)
	for _, t := range trajs {
		if err := t.ValidateAgainst(sg, sitm.LouvreZoneLayer, false); err != nil {
			log.Fatal(err)
		}
	}

	// --- Figure 3: ground-floor detection counts. ------------------------
	ground := map[string]bool{}
	for _, z := range sitm.LouvreZones() {
		if z.Floor == 0 {
			ground[z.ID] = true
		}
	}
	fmt.Println("\nFigure 3 series (detections per ground-floor zone):")
	for _, c := range sitm.DetectionCounts(dataset.Detections(), func(c string) bool { return ground[c] }) {
		fmt.Printf("  %-10s %4d\n", c.Cell, c.Count)
	}

	// --- Figure 6: inference over a sparse trace. ------------------------
	day := time.Date(2017, 2, 14, 17, 0, 0, 0, time.UTC)
	sparse := sitm.Trace{
		{Cell: "zone60887", Start: day, End: day.Add(30*time.Minute + 21*time.Second)},
		{Cell: "zone60890", Start: day.Add(31*time.Minute + 42*time.Second), End: day.Add(40 * time.Minute)},
	}
	fixed, _, err := sitm.InferMissing(sg, sparse,
		sitm.NewAnnotations("goals", "cloakroomPickup", "goals", "souvenirBuy", "goals", "museumExit"), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 6 inference:")
	fmt.Println("  observed:     ", sparse)
	fmt.Println("  reconstructed:", fixed)

	// --- Storage: the sharded dictionary-encoded engine. ------------------
	// Everything below runs off the store: it interns cell/MO names once at
	// write time, so spatio-temporal queries are integer-indexed and the
	// analytics handoffs (Corpus, Sequences) re-encode nothing.
	st := sitm.NewStore()
	st.PutBatch(trajs)
	fmt.Println("\nstore:", st.Summarize())
	week := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	fmt.Printf("visitors in zone60853 in the first week of March: %d\n",
		len(st.InCellDuring("zone60853", week, week.AddDate(0, 0, 7))))
	fmt.Printf("trajectories passing zone60887 → zone60888 consecutively: %d\n",
		len(st.ThroughSequence("zone60887", "zone60888")))

	// --- Mining (interned handoff: store → PrefixSpan, zero re-encode). ---
	dict, seqs := st.Sequences()
	patterns := sitm.PrefixSpanInterned(dict, seqs, len(trajs)/20+1, 3)
	fmt.Println("\ntop sequential patterns:")
	for i, pat := range patterns {
		if i == 5 {
			break
		}
		fmt.Printf("  %-55s support %d\n", strings.Join(pat.Cells, " → "), pat.Support)
	}
	switches, err := sitm.FloorSwitches(sg, trajs, sitm.LouvreFloorLayer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfloor-switching patterns (§5):")
	for i, s := range switches {
		if i == 5 {
			break
		}
		fmt.Printf("  floor %+d → floor %+d: %d times\n", s.FromFloor, s.ToFloor, s.Count)
	}

	// --- Visitor profiling (§5 future work, implemented). -----------------
	// The corpus comes straight off the store (experiment E7): the cell
	// sequences and annotation sets interned at write time are handed to
	// the similarity engine as-is, then the E6 interned pipeline runs —
	// dense cell table, flat-scratch kernels, cached-distance k-medoids.
	corpus := st.Corpus()
	table := corpus.CellTable(sitm.HierarchyCellSimilarity(sg, hierarchy))
	clusters := corpus.KMedoids(table, 0.8, 4, 42)
	all := st.All()
	sizes := map[int]int{}
	for _, c := range clusters.Assign {
		sizes[c]++
	}
	fmt.Println("\nvisitor profiles (k-medoids over hierarchy-aware similarity):")
	for c := 0; c < len(clusters.Medoids); c++ {
		medoid := all[clusters.Medoids[c]]
		fmt.Printf("  profile %d: %d visitors, exemplar path %v\n",
			c, sizes[c], medoid.Trace.DistinctCells())
	}
}
