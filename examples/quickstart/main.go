// Quickstart: model a small two-floor building, record a semantic
// trajectory, validate it against the space graph, split a stay when the
// moving object's goal changes (the event-based model of §3.3), and infer
// a missed room from the accessibility topology (the Figure 6 mechanism).
package main

import (
	"fmt"
	"log"
	"time"

	"sitm"
)

func main() {
	// --- 1. Space: a building with two floors and four rooms. ----------
	sg := sitm.NewSpaceGraph()
	check(sg.AddLayer(sitm.Layer{ID: "Building", Rank: 2}))
	check(sg.AddLayer(sitm.Layer{ID: "Floor", Rank: 1}))
	check(sg.AddLayer(sitm.Layer{ID: "Room", Rank: 0}))

	check(sg.AddCell(sitm.Cell{ID: "hq", Layer: "Building", Class: "Building"}))
	for _, f := range []string{"floor0", "floor1"} {
		check(sg.AddCell(sitm.Cell{ID: f, Layer: "Floor", Class: "Floor"}))
		check(sg.AddJoint("hq", f, sitm.Covers))
	}
	rooms := map[string]string{
		"lobby": "floor0", "cafeteria": "floor0",
		"lab": "floor1", "office": "floor1",
	}
	for r, f := range rooms {
		check(sg.AddCell(sitm.Cell{ID: r, Layer: "Room", Class: "Room"}))
		check(sg.AddJoint(f, r, sitm.Covers))
	}
	// Accessibility: lobby ↔ cafeteria, lobby ↔ lab (stairs), lab ↔ office.
	// The lab→office door is one-way (badge-out only), §3.2 style.
	sg.AddBoundary(sitm.Boundary{ID: "stairs", Kind: sitm.Stair})
	check(sg.AddBiAccess("lobby", "cafeteria", "door-lc"))
	check(sg.AddBiAccess("lobby", "lab", "stairs"))
	check(sg.AddAccess("lab", "office", "badge-door"))
	check(sg.AddAccess("office", "lab", "badge-door"))

	h := sitm.NewCoreHierarchy(false, false)
	check(h.Validate(sg))
	fmt.Println("space graph valid; hierarchy:", h.Layers)

	// --- 2. A semantic trajectory (Def 3.1/3.2). ------------------------
	t0 := time.Date(2026, 6, 10, 9, 0, 0, 0, time.UTC)
	trace := sitm.Trace{
		{Cell: "lobby", Start: t0, End: t0.Add(5 * time.Minute)},
		{Transition: "stairs", Cell: "lab", Start: t0.Add(5 * time.Minute), End: t0.Add(90 * time.Minute),
			Ann: sitm.NewAnnotations("goals", "experiment")},
	}
	traj, err := sitm.NewTrajectory("alice", trace, sitm.NewAnnotations("activity", "workday"))
	check(err)
	check(traj.ValidateAgainst(sg, "Room", true))
	fmt.Println("trajectory:", traj)

	// --- 3. Event-based split: the goal changes mid-stay (§3.3). --------
	split, err := traj.Trace.SplitAt(1, t0.Add(60*time.Minute),
		sitm.NewAnnotations("goals", "experiment", "goals", "writeup"))
	check(err)
	fmt.Println("after goal change:", split)

	// --- 4. Inference: a detection gap bridged by topology (Fig 6). -----
	sparse := sitm.Trace{
		{Cell: "cafeteria", Start: t0.Add(2 * time.Hour), End: t0.Add(2*time.Hour + 20*time.Minute)},
		{Cell: "lab", Start: t0.Add(2*time.Hour + 25*time.Minute), End: t0.Add(3 * time.Hour)},
	}
	// cafeteria → lab has no direct edge; the lobby must have been crossed.
	reconstructed, inferences, err := sitm.InferMissing(sg, sparse, nil, true)
	check(err)
	fmt.Println("sparse trace:   ", sparse)
	fmt.Println("reconstructed:  ", reconstructed)
	for _, inf := range inferences {
		fmt.Printf("inferred a stay in %q between %s and %s\n", inf.Tuple.Cell, inf.From, inf.To)
	}

	// --- 5. Roll-up: the same trajectory at floor granularity (§3.2). ---
	up, err := traj.RollUp(sg, "Floor")
	check(err)
	fmt.Println("floor-level view:", up.Trace.Cells())

	// --- 6. Storage + semantic queries: the sharded store. ---------------
	// The store interns every name once at write time; with the compiled
	// hierarchy attached, floors and the building are queryable regions and
	// the analytics handoff (Sequences) re-encodes nothing.
	afternoon, err := sitm.NewTrajectory("alice", reconstructed,
		sitm.NewAnnotations("activity", "lunch-run"))
	check(err)
	st := sitm.NewStore()
	st.PutBatch([]sitm.Trajectory{traj, afternoon})
	rt, err := sitm.CompileRegions(sg, h)
	check(err)
	st.AttachRegions(rt)
	fmt.Println("store:", st.Summarize())

	upstairs, err := st.SelectMOs(sitm.QAnd(
		sitm.QRegion("Floor", "floor1"),
		sitm.QTimeOverlap(t0, t0.Add(2*time.Hour)),
	))
	check(err)
	fmt.Println("on floor1 during the morning:", upstairs)

	dict, seqs := st.Sequences()
	floorPatterns, err := sitm.PrefixSpanRegions(dict, seqs, rt, "Floor", 2, 3)
	check(err)
	fmt.Println("floor-level patterns (both visits):")
	for _, p := range floorPatterns {
		fmt.Printf("  %v support %d\n", p.Cells, p.Support)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
