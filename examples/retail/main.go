// Retail: the SITM in a shopping mall (§1 lists retail stores among the
// domains with "similar opportunities"). A mall is modelled with a semantic
// department-zone layer over a topographic floor layer; shopper traces feed
// association-rule mining ("who visits electronics then visits the café"),
// dwell-time analytics and k-medoids shopper profiling.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"sitm"
)

func main() {
	sg := sitm.NewSpaceGraph()
	check(sg.AddLayer(sitm.Layer{ID: "Building", Rank: 2}))
	check(sg.AddLayer(sitm.Layer{ID: "Floor", Rank: 1}))
	check(sg.AddLayer(sitm.Layer{ID: "Zone", Rank: 0, Kind: sitm.Semantic}))

	check(sg.AddCell(sitm.Cell{ID: "mall", Layer: "Building", Class: "Building"}))
	for _, f := range []string{"level0", "level1"} {
		check(sg.AddCell(sitm.Cell{ID: f, Layer: "Floor", Class: "Floor"}))
		check(sg.AddJoint("mall", f, sitm.Covers))
	}
	zones := []struct {
		id, theme, floor string
	}{
		{"entrance", "Circulation", "level0"},
		{"fashion", "Apparel", "level0"},
		{"electronics", "Electronics", "level0"},
		{"groceries", "Food Retail", "level0"},
		{"cafe", "Food Court", "level1"},
		{"cinema", "Entertainment", "level1"},
	}
	for _, z := range zones {
		check(sg.AddCell(sitm.Cell{ID: z.id, Layer: "Zone", Class: "Zone", Theme: z.theme}))
		check(sg.AddJoint(z.floor, z.id, sitm.Covers))
	}
	check(sg.AddBiAccess("entrance", "fashion", "g1"))
	check(sg.AddBiAccess("entrance", "groceries", "g2"))
	check(sg.AddBiAccess("fashion", "electronics", "g3"))
	check(sg.AddBiAccess("groceries", "electronics", "g4"))
	check(sg.AddBiAccess("electronics", "cafe", "escalator"))
	check(sg.AddBiAccess("cafe", "cinema", "g5"))
	check(sg.AddBiAccess("fashion", "cafe", "escalator2"))

	// --- Simulate shoppers with two behavioural archetypes. --------------
	rng := rand.New(rand.NewSource(7))
	t0 := time.Date(2026, 6, 10, 10, 0, 0, 0, time.UTC)
	techPath := []string{"entrance", "groceries", "electronics", "cafe"}
	fashionPath := []string{"entrance", "fashion", "cafe", "cinema"}
	var trajs []sitm.Trajectory
	for i := 0; i < 60; i++ {
		path := techPath
		kind := "tech"
		if i%2 == 1 {
			path = fashionPath
			kind = "fashion"
		}
		start := t0.Add(time.Duration(rng.Intn(300)) * time.Minute)
		var trace sitm.Trace
		at := start
		for _, z := range path {
			stay := time.Duration(5+rng.Intn(25)) * time.Minute
			trace = append(trace, sitm.PresenceInterval{Cell: z, Start: at, End: at.Add(stay)})
			at = at.Add(stay + time.Minute)
		}
		tr, err := sitm.NewTrajectory(fmt.Sprintf("shopper%02d", i), trace,
			sitm.NewAnnotations("behavior", kind))
		check(err)
		check(tr.ValidateAgainst(sg, "Zone", true))
		trajs = append(trajs, tr)
	}
	fmt.Printf("simulated %d shopper trajectories over %d zones\n", len(trajs), len(zones))

	// --- Storage: all analytics below run off the sharded store. ----------
	st := sitm.NewStore()
	st.PutBatch(trajs)
	fmt.Println("store:", st.Summarize())
	lunch := t0.Add(2 * time.Hour)
	fmt.Printf("shoppers in the café between %s and %s: %d\n",
		lunch.Format("15:04"), lunch.Add(time.Hour).Format("15:04"),
		len(st.InCellDuring("cafe", lunch, lunch.Add(time.Hour))))
	fmt.Printf("shoppers going electronics → café directly: %d\n",
		len(st.ThroughSequence("electronics", "cafe")))

	// --- Association rules (interned store → mining handoff). -------------
	dict, seqs := st.Sequences()
	patterns := sitm.PrefixSpanInterned(dict, seqs, 10, 3)
	rules := sitm.MineRules(patterns, 0.6)
	fmt.Println("\nassociation rules (confidence ≥ 0.6):")
	for i, r := range rules {
		if i == 6 {
			break
		}
		fmt.Printf("  %-28s ⇒ %-16s conf %.2f (support %d)\n",
			strings.Join(r.Antecedent, " → "), strings.Join(r.Consequent, " → "),
			r.Confidence, r.Support)
	}

	// --- Dwell times per department. --------------------------------------
	fmt.Println("\ndwell time per zone:")
	for _, s := range sitm.LengthOfStay(trajs) {
		fmt.Printf("  %-12s %3d stays, median %v\n", s.Cell, s.Visits, s.Median.Round(time.Minute))
	}

	// --- Profiling: do the two archetypes separate? ------------------------
	// Pure spatial similarity (weight 1.0): the paths alone must separate
	// shoppers. The corpus is the store's zero-re-encode snapshot (E7);
	// clustering runs on the interned pipeline.
	corpus := st.Corpus()
	clusters := corpus.KMedoids(corpus.CellTable(exact), 1.0, 2, 99)
	var agree, total int
	for i, tr := range trajs {
		want := tr.Ann.Has("behavior", "tech")
		got := clusters.Assign[i] == clusters.Assign[0] // cluster of shopper00 (tech)
		if want == got {
			agree++
		}
		total++
	}
	fmt.Printf("\nprofiling: %d/%d shoppers assigned to their archetype's cluster\n", agree, total)
}

func exact(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
