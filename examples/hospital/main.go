// Hospital: the SITM on a non-museum domain (§3: "all types of indoor
// settings; both human and inanimate moving objects"). A two-building
// hospital campus is modelled with the BuildingComplex root layer; a
// patient and a wheeled infusion pump are tracked, hygiene airlocks are
// one-way, gaps are classified as holes vs semantic gaps, and stays are
// annotated with care activities.
package main

import (
	"fmt"
	"log"
	"time"

	"sitm"
)

func main() {
	sg := sitm.NewSpaceGraph()
	check(sg.AddLayer(sitm.Layer{ID: "BuildingComplex", Rank: 3}))
	check(sg.AddLayer(sitm.Layer{ID: "Building", Rank: 2}))
	check(sg.AddLayer(sitm.Layer{ID: "Floor", Rank: 1}))
	check(sg.AddLayer(sitm.Layer{ID: "Room", Rank: 0}))

	check(sg.AddCell(sitm.Cell{ID: "campus", Layer: "BuildingComplex", Class: "BuildingComplex"}))
	for _, b := range []string{"main", "surgery"} {
		check(sg.AddCell(sitm.Cell{ID: b, Layer: "Building", Class: "Building"}))
		check(sg.AddJoint("campus", b, sitm.Contains))
		check(sg.AddCell(sitm.Cell{ID: b + ":0", Layer: "Floor", Class: "Floor", Building: b}))
		check(sg.AddJoint(b, b+":0", sitm.Covers))
	}
	rooms := map[string]string{
		"reception": "main:0", "ward-a": "main:0", "ward-b": "main:0",
		"corridor": "main:0", "airlock": "surgery:0", "or-1": "surgery:0",
		"recovery": "surgery:0",
	}
	for r, f := range rooms {
		check(sg.AddCell(sitm.Cell{ID: r, Layer: "Room", Class: "Room"}))
		check(sg.AddJoint(f, r, sitm.Covers))
	}
	// Ward topology: reception ↔ corridor ↔ wards; the surgery airlock is
	// strictly one-way into the OR (hygiene), exit goes through recovery.
	check(sg.AddBiAccess("reception", "corridor", "d1"))
	check(sg.AddBiAccess("corridor", "ward-a", "d2"))
	check(sg.AddBiAccess("corridor", "ward-b", "d3"))
	check(sg.AddBiAccess("corridor", "airlock", "d4"))
	check(sg.AddAccess("airlock", "or-1", "hygiene-gate")) // one-way in
	check(sg.AddAccess("or-1", "recovery", "d5"))
	check(sg.AddBiAccess("recovery", "corridor", "d6"))

	h := sitm.Hierarchy{Layers: []string{"BuildingComplex", "Building", "Floor", "Room"}}
	check(h.Validate(sg))
	fmt.Println("hospital campus model valid:", h.Layers)

	// --- A patient's morning, annotated with care activities. -----------
	t0 := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	patient := sitm.Trace{
		{Cell: "reception", Start: t0, End: t0.Add(15 * time.Minute),
			Ann: sitm.NewAnnotations("activity", "check-in")},
		{Transition: "d1", Cell: "corridor", Start: t0.Add(15 * time.Minute), End: t0.Add(17 * time.Minute)},
		{Transition: "d4", Cell: "airlock", Start: t0.Add(17 * time.Minute), End: t0.Add(20 * time.Minute),
			Ann: sitm.NewAnnotations("activity", "pre-op-prep")},
		{Transition: "hygiene-gate", Cell: "or-1", Start: t0.Add(20 * time.Minute), End: t0.Add(2 * time.Hour),
			Ann: sitm.NewAnnotations("activity", "surgery")},
		{Transition: "d5", Cell: "recovery", Start: t0.Add(2 * time.Hour), End: t0.Add(4 * time.Hour),
			Ann: sitm.NewAnnotations("activity", "recovery")},
	}
	pt, err := sitm.NewTrajectory("patient-007", patient, sitm.NewAnnotations("goal", "knee-surgery"))
	check(err)
	check(pt.ValidateAgainst(sg, "Room", true))
	fmt.Println("patient trajectory topologically valid (one-way hygiene gate respected)")

	// The reverse route would be rejected: or-1 → airlock is not accessible.
	if sg.Accessible("or-1", "airlock") {
		log.Fatal("hygiene gate must be one-way")
	}

	// --- An inanimate MO: the infusion pump with a flaky tag. ------------
	pump := sitm.Trace{
		{Cell: "ward-a", Start: t0, End: t0.Add(30 * time.Minute)},
		// 3h silence: the tag slept — then the pump shows up in ward-b.
		{Cell: "ward-b", Start: t0.Add(210 * time.Minute), End: t0.Add(240 * time.Minute)},
	}
	gaps := pump.FindGaps(time.Minute, func(before, after sitm.PresenceInterval, d time.Duration) sitm.GapKind {
		// Equipment cannot leave the campus: every gap is a sensing hole.
		return sitm.Hole
	})
	for _, g := range gaps {
		fmt.Printf("pump gap of %v after %s — classified as sensing hole\n", g.Duration, pump[g.After].Cell)
	}
	fixed, infs, err := sitm.InferMissing(sg, pump, nil, true)
	check(err)
	fmt.Printf("pump path reconstructed through %d inferred room(s): %v\n", len(infs), fixed.Cells())

	// --- Roll-up: where was the patient, per building? -------------------
	up, err := pt.RollUp(sg, "Building")
	check(err)
	fmt.Println("patient at building granularity:", up.Trace.Cells())
	for _, p := range up.Trace {
		fmt.Printf("  %s: %v → %v (%v)\n", p.Cell, p.Start.Format("15:04"), p.End.Format("15:04"), p.Ann)
	}

	// --- Storage: the sharded dictionary-encoded engine. ------------------
	// Everything below runs off the store: names are interned once at write
	// time, the hierarchy compiles into a region table, and the analytics
	// handoffs (Corpus, Sequences) re-encode nothing.
	pump2, err := sitm.NewTrajectory("pump-342", pump, sitm.NewAnnotations("asset", "infusion-pump"))
	check(err)
	nurse := sitm.Trace{
		{Cell: "ward-a", Start: t0, End: t0.Add(20 * time.Minute),
			Ann: sitm.NewAnnotations("activity", "rounds")},
		{Transition: "d2", Cell: "corridor", Start: t0.Add(20 * time.Minute), End: t0.Add(22 * time.Minute)},
		{Transition: "d3", Cell: "ward-b", Start: t0.Add(22 * time.Minute), End: t0.Add(50 * time.Minute),
			Ann: sitm.NewAnnotations("activity", "rounds")},
	}
	nt, err := sitm.NewTrajectory("nurse-012", nurse, sitm.NewAnnotations("role", "nurse"))
	check(err)
	st := sitm.NewStore()
	st.PutBatch([]sitm.Trajectory{pt, pump2, nt})
	fmt.Println("\nstore:", st.Summarize())

	// --- Semantic region queries on the compiled hierarchy. ---------------
	// The hierarchy compiles once into a region table; attached to the
	// store, every building/floor becomes a queryable region and "who was
	// in the surgery building this morning" is one posting-list plan, not
	// an expand-to-rooms loop.
	rt, err := sitm.CompileRegions(sg, h)
	check(err)
	st.AttachRegions(rt)
	inSurgery, err := st.SelectMOs(sitm.QAnd(
		sitm.QRegion("Building", "surgery"),
		sitm.QTimeOverlap(t0, t0.Add(4*time.Hour)),
	))
	check(err)
	fmt.Println("in the surgery building this morning:", inSurgery)
	crossed, err := st.Select(sitm.QThroughRegions(
		sitm.RegionRef{Layer: "Building", ID: "main"},
		sitm.RegionRef{Layer: "Building", ID: "surgery"},
	))
	check(err)
	for _, t := range crossed {
		fmt.Printf("crossed main → surgery: %s\n", t.MO)
	}

	// --- Mining and similarity off the zero-re-encode handoffs. -----------
	dict, seqs := st.Sequences()
	patterns, err := sitm.PrefixSpanRegions(dict, seqs, rt, "Building", 2, 3)
	check(err)
	fmt.Println("building-level movement patterns (support ≥ 2):")
	for _, p := range patterns {
		fmt.Printf("  %v support %d\n", p.Cells, p.Support)
	}
	corpus := st.Corpus()
	table := corpus.CellTable(sitm.HierarchyCellSimilarity(sg, h))
	sim := corpus.PairwiseMatrix(table, 0.7)
	fmt.Printf("patient vs nurse trajectory similarity: %.2f\n", sim[0][2])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
