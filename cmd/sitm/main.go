// Command sitm regenerates the paper's tables and figures from the library
// and runs the live ingestion engine:
//
//	sitm stats              reproduce the §4.1 dataset statistics table (D1)
//	sitm figures -id F3     print one artefact (T1, F1–F6, X1) or all
//	sitm generate -out f    write the calibrated synthetic dataset as CSV
//	sitm ingest -in f       stream a detection feed (file or '-' = stdin)
//	                        into a queryable store and report on it;
//	                        -store dir makes the ingest durable (WAL)
//	sitm query -store f     answer spatio-temporal and semantic queries
//	                        (-through, -overlap, -in-cell, -mo, -region,
//	                        -annotation) against a JSON store file or a
//	                        durable store directory; the semantic flags
//	                        compose all given predicates into one plan on
//	                        the store's query engine
//	sitm compact -store d   checkpoint a durable store directory
//	sitm mine               run the mining pipeline (patterns, rules, stays)
//	sitm profile            cluster visitors into profiles (k-medoids over
//	                        the interned similarity engine)
//
// All output is deterministic for a given -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sitm"
	"sitm/internal/gml"
	"sitm/internal/louvre"
	"sitm/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "-h", "--help", "help":
		usage()
		return
	}
	err := run(os.Args[1:], os.Stdout)
	if err == errUnknownCommand {
		fmt.Fprintf(os.Stderr, "sitm: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitm:", err)
		os.Exit(1)
	}
}

var errUnknownCommand = fmt.Errorf("unknown command")

// run dispatches one subcommand, writing its report to out. Factoring the
// writer out of main keeps every subcommand golden-testable.
func run(args []string, out io.Writer) error {
	switch args[0] {
	case "stats":
		return runStats(args[1:], out)
	case "figures":
		return runFigures(args[1:], out)
	case "generate":
		return runGenerate(args[1:], out)
	case "ingest":
		return runIngest(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	case "mine":
		return runMine(args[1:], out)
	case "profile":
		return runProfile(args[1:], out)
	case "gml":
		return runGML(args[1:], out)
	case "compact":
		return runCompact(args[1:], out)
	case "inspect":
		return runInspect(args[1:], out)
	}
	return errUnknownCommand
}

// writeFile writes one output artefact: create, fn, then Sync and Close,
// every error propagated — a full disk surfaces as an error here, not as a
// silently truncated file with a clean exit status.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sitm <command> [flags]

commands:
  stats      reproduce the paper's §4.1 dataset statistics (experiment D1)
  figures    print the paper's tables/figures (-id T1|F1|F2|F3|F4|F5|F6|X1)
  generate   write the calibrated synthetic dataset as CSV (-out file);
             -stream orders the rows as a global time-ordered feed
  ingest     stream a detection feed (-in file, '-' = stdin) through the
             online segmenter into an incrementally-indexed store
  query      load a JSON store file (-store) and answer spatio-temporal
             queries: -through a,b,c | -overlap from,to | -in-cell c,from,to;
             -mo id | -region layer:id | -annotation k=v compose every
             given predicate into one plan (-region rolls up through the
             -model hierarchy, e.g. -region Wing:denon)
  mine       run the mining pipeline on a seeded dataset
  profile    cluster visitors (k-medoids over the interned similarity
             engine) and report the profiles
  gml        export the Louvre space graph as IndoorGML-style XML (-out file)
             and verify the round trip
  compact    checkpoint a durable store directory (-store dir): write the
             rows logged since the last checkpoint as one more generation
             of immutable columnar segments (earlier ones are kept, not
             merged)
  inspect    dump a durable store directory (-store dir or positional):
             manifest, per-segment block layout with zone-map extents,
             and the segments' bytes on disk`)
}

func params(seed int64, scale float64) sitm.DatasetParams {
	p := sitm.DefaultDatasetParams()
	p.Seed = seed
	if scale > 0 && scale != 1 {
		p.Visitors = int(float64(p.Visitors) * scale)
		p.ReturningVisitors = int(float64(p.ReturningVisitors) * scale)
		p.RepeatVisits = int(float64(p.RepeatVisits) * scale)
		p.TargetDetections = int(float64(p.TargetDetections) * scale)
	}
	return p
}

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	seed := fs.Int64("seed", sitm.DefaultDatasetParams().Seed, "generator seed")
	scale := fs.Float64("scale", 1, "population scale factor (1 = the paper's size)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, _, err := sitm.GenerateLouvreDataset(params(*seed, *scale))
	if err != nil {
		return err
	}
	s := sitm.ComputeDatasetStats(d)
	paper := map[string]string{
		"visits":                 "4945",
		"distinct visitors":      "3228",
		"returning visitors":     "1227",
		"second/third visits":    "1717",
		"zone detections":        "20245",
		"zone transitions":       "15300",
		"zero-duration (~10%)":   "≈10%",
		"visit duration min":     "0s",
		"visit duration max":     "7h41m37s",
		"detection duration min": "0s",
		"detection duration max": "5h39m20s",
		"zones in dataset":       "30",
	}
	rows := [][]string{
		{"visits", paper["visits"], fmt.Sprint(s.Visits)},
		{"distinct visitors", paper["distinct visitors"], fmt.Sprint(s.Visitors)},
		{"returning visitors", paper["returning visitors"], fmt.Sprint(s.ReturningVisitors)},
		{"second/third visits", paper["second/third visits"], fmt.Sprint(s.RepeatVisits)},
		{"zone detections", paper["zone detections"], fmt.Sprint(s.Detections)},
		{"zone transitions", paper["zone transitions"], fmt.Sprint(s.Transitions)},
		{"zero-duration (~10%)", paper["zero-duration (~10%)"], fmt.Sprintf("%.1f%%", s.ZeroDurationPercent)},
		{"visit duration min", paper["visit duration min"], s.MinVisitDuration.String()},
		{"visit duration max", paper["visit duration max"], s.MaxVisitDuration.String()},
		{"detection duration min", paper["detection duration min"], s.MinDetectionDuration.String()},
		{"detection duration max", paper["detection duration max"], s.MaxDetectionDuration.String()},
		{"zones in dataset", paper["zones in dataset"], fmt.Sprint(s.DistinctZones)},
	}
	fmt.Fprintln(out, "Experiment D1 — §4.1 dataset statistics (paper vs synthetic reproduction)")
	fmt.Fprint(out, viz.Table([]string{"statistic", "paper", "measured"}, rows))
	return nil
}

func runFigures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	id := fs.String("id", "all", "artefact id: T1, F1, F2, F3, F4, F5, F6, X1 or all")
	seed := fs.Int64("seed", sitm.DefaultDatasetParams().Seed, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := map[string]func(int64, io.Writer) error{
		"T1": figT1, "F1": figF1, "F2": figF2, "F3": figF3,
		"F4": figF4, "F5": figF5, "F6": figF6, "X1": figX1,
	}
	if *id != "all" {
		f, ok := all[strings.ToUpper(*id)]
		if !ok {
			return fmt.Errorf("unknown artefact %q", *id)
		}
		return f(*seed, out)
	}
	for _, key := range []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "X1"} {
		if err := all[key](*seed, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func figT1(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Table 1 — closely related terms across models")
	var rows [][]string
	for _, r := range sitm.Table1() {
		rows = append(rows, []string{r.NIntersection, r.PrimalSpace, r.DualSpaceNRG, r.DualNavigation})
	}
	fmt.Fprint(out, viz.Table([]string{"n-intersection", "primal space (2D)", "dual space (NRG)", "dual space (navigation)"}, rows))
	return nil
}

func figF1(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 1 — 2-level hierarchical graph, central Denon wing, 1st floor")
	sg, err := sitm.LouvreFigure1()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hall 5 refines into: %v (joint edges: contains)\n", sg.ActiveStates("5", louvre.Figure1Lower))
	fmt.Fprintf(out, "Salle des États one-way rule: 4→2 accessible = %v, 2→4 accessible = %v\n",
		sg.Accessible("4", "2"), sg.Accessible("2", "4"))
	dot, err := viz.SpaceGraphDOT(sg, louvre.Figure1Upper)
	if err != nil {
		return err
	}
	fmt.Fprint(out, dot)
	return nil
}

func figF2(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 2 — core layer hierarchy with building-complex root and RoI leaf")
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	if err := h.Validate(sg); err != nil {
		return fmt.Errorf("hierarchy invalid: %w", err)
	}
	var rows [][]string
	for _, lid := range h.Layers {
		l, _ := sg.Layer(lid)
		rows = append(rows, []string{
			fmt.Sprint(l.Rank), l.ID, l.Kind.String(),
			fmt.Sprint(len(sg.CellsInLayer(lid))), l.Desc,
		})
	}
	fmt.Fprint(out, viz.Table([]string{"rank", "layer", "kind", "cells", "description"}, rows))
	fmt.Fprintln(out, "hierarchy valid: joint edges carry only contains/covers, no layer skipping, single parents")
	return nil
}

func figF3(seed int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 3 — choropleth of visitor detections, 11 ground-floor zones")
	d, _, err := sitm.GenerateLouvreDataset(params(seed, 1))
	if err != nil {
		return err
	}
	ground := make(map[string]bool)
	names := make(map[string]string)
	for _, z := range sitm.LouvreZones() {
		if z.Floor == 0 {
			ground[z.ID] = true
			names[z.ID] = z.Name
		}
	}
	counts := sitm.DetectionCounts(d.Detections(), func(c string) bool { return ground[c] })
	var bars []viz.Bar
	for _, c := range counts {
		bars = append(bars, viz.Bar{Label: fmt.Sprintf("%s (%s)", c.Cell, names[c.Cell]), Value: float64(c.Count)})
	}
	fmt.Fprint(out, viz.BarChart(bars, 40))
	return nil
}

func figF4(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 4 — RoIs do not fully cover their containing spaces")
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, probe := range []struct{ parent, what string }{
		{"room60853_1", "RoIs in a zone-60853 room"},
		{"room60854_1", "RoIs in a zone-60854 room"},
		{"zone60853", "rooms tiling zone 60853"},
		{louvre.FloorID(louvre.WingSully, 0), "zones on the Sully ground floor"},
	} {
		rep, err := sg.Coverage(probe.parent, 40)
		if err != nil {
			return err
		}
		rows = append(rows, []string{probe.what, probe.parent,
			fmt.Sprint(len(rep.Children)), fmt.Sprintf("%.2f", rep.Ratio)})
	}
	fmt.Fprint(out, viz.Table([]string{"coverage of", "parent cell", "children", "ratio"}, rows))
	fmt.Fprintln(out, "full-coverage hypothesis holds for rooms-in-zones but fails for RoIs and for floors (corridor)")
	return nil
}

func figF5(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 5 — overlapping 'exit museum' and 'buy souvenir' episodes on E→P→S→C")
	day := time.Date(2017, 2, 14, 17, 0, 0, 0, time.UTC)
	trace := sitm.Trace{
		{Cell: louvre.ZoneE, Start: day, End: day.Add(30 * time.Minute)},
		{Transition: louvre.BoundaryCheckpoint002, Cell: louvre.ZoneP, Start: day.Add(30 * time.Minute), End: day.Add(32 * time.Minute)},
		{Transition: louvre.BoundaryPassage003, Cell: louvre.ZoneS, Start: day.Add(32 * time.Minute), End: day.Add(50 * time.Minute)},
		{Transition: louvre.BoundaryCarrousel, Cell: louvre.ZoneC, Start: day.Add(50 * time.Minute), End: day.Add(55 * time.Minute)},
	}
	parent, err := sitm.NewTrajectory("figure5-visitor", trace, sitm.NewAnnotations("activity", "visit"))
	if err != nil {
		return err
	}
	exit, err := sitm.NewEpisode(parent, 1, 4, "exit museum", sitm.NewAnnotations("goals", "museumExit"), nil)
	if err != nil {
		return err
	}
	buy, err := sitm.NewEpisode(parent, 0, 3, "buy souvenir", sitm.NewAnnotations("goals", "buySouvenir"), nil)
	if err != nil {
		return err
	}
	seg := sitm.Segmentation{Parent: parent, Episodes: []sitm.Episode{exit, buy}}
	if err := seg.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(out, "trace:", parent.Trace)
	for _, ep := range seg.Episodes {
		fmt.Fprintf(out, "episode %q: %v → %v over %v\n", ep.Label,
			ep.Start().Format("15:04:05"), ep.End().Format("15:04:05"), ep.Trace.Cells())
	}
	fmt.Fprintf(out, "overlapping episode pairs: %v (the paper's point: overlap is allowed)\n", seg.OverlappingPairs())
	return nil
}

func figF6(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "Figure 6 — zone accessibility topology and the Zone-60888 inference")
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	day := time.Date(2017, 2, 14, 17, 0, 0, 0, time.UTC)
	sparse := sitm.Trace{
		{Cell: louvre.ZoneE, Start: day, End: day.Add(30*time.Minute + 21*time.Second)},
		{Cell: louvre.ZoneS, Start: day.Add(31*time.Minute + 42*time.Second), End: day.Add(40 * time.Minute)},
	}
	fmt.Fprintln(out, "observed:", sparse)
	extra := sitm.NewAnnotations("goals", "cloakroomPickup", "goals", "souvenirBuy", "goals", "museumExit")
	reconstructed, infs, err := sitm.InferMissing(sg, sparse, extra, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "reconstructed:", reconstructed)
	for _, inf := range infs {
		fmt.Fprintf(out, "inferred tuple at index %d: %v (between %s and %s)\n",
			inf.Index, inf.Tuple, inf.From, inf.To)
	}
	// δt1 ≫ δt2 expectation: E is a ticketed temporary exhibition.
	fmt.Fprintf(out, "δt1 (E) = %v ≫ δt2 (S) = %v — E requires a separate ticket\n",
		sparse[0].Duration(), sparse[1].Duration())
	dot, err := viz.SpaceGraphDOT(sg, sitm.LouvreZoneLayer)
	if err != nil {
		return err
	}
	// Print only the −2 floor cluster lines to keep output focused, like
	// the paper's lower part of the figure.
	for _, line := range strings.Split(dot, "\n") {
		if strings.Contains(line, "6088") || strings.Contains(line, "floor -2") {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

func figX1(_ int64, out io.Writer) error {
	fmt.Fprintln(out, "X1 — §3.3 event-based split: the visitor's goals change inside room006")
	day := time.Date(2017, 2, 14, 14, 12, 0, 0, time.UTC)
	tr := sitm.Trace{{
		Transition: "door005", Cell: "room006",
		Start: day, End: day.Add(16 * time.Minute),
		Ann: sitm.NewAnnotations("goals", "visit"),
	}}
	fmt.Fprintln(out, "before:", tr)
	split, err := tr.SplitAt(0, day.Add(9*time.Minute+46*time.Second),
		sitm.NewAnnotations("goals", "visit", "goals", "buy"))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "after: ", split)
	return nil
}

func runGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	outPath := fs.String("out", "dataset.csv", "output CSV path")
	seed := fs.Int64("seed", sitm.DefaultDatasetParams().Seed, "generator seed")
	scale := fs.Float64("scale", 1, "population scale factor")
	stream := fs.Bool("stream", false, "order rows as a global time-ordered feed (stream-emission mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, _, err := sitm.GenerateLouvreDataset(params(*seed, *scale))
	if err != nil {
		return err
	}
	dets := d.Detections()
	if *stream {
		dets = d.DetectionsByTime()
	}
	if err := writeFile(*outPath, func(w io.Writer) error {
		return sitm.WriteDetectionsCSV(w, dets)
	}); err != nil {
		return err
	}
	s := sitm.ComputeDatasetStats(d)
	mode := "visit order"
	if *stream {
		mode = "time-ordered feed"
	}
	fmt.Fprintf(out, "wrote %d detections (%d visits, %d visitors, %s) to %s\n",
		s.Detections, s.Visits, s.Visitors, mode, *outPath)
	return nil
}

func runIngest(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "-", "detections CSV feed ('-' = stdin)")
	storeDir := fs.String("store", "", "durable store directory (empty = in-memory only)")
	gap := fs.Duration("gap", 10*time.Hour, "session gap splitting visits")
	merge := fs.Bool("merge", false, "coalesce consecutive same-cell detections")
	keepZero := fs.Bool("keep-zero", false, "keep zero-duration detections (errors)")
	batch := fs.Int("batch", 128, "trajectories per store write batch")
	top := fs.Int("top", 5, "busiest cells to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rc io.ReadCloser = os.Stdin
	src := "stdin"
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		rc = f
	}
	if *in != "-" {
		src = *in
	}
	// The feed may be interrupted: SIGINT/SIGTERM stops consuming and
	// falls through to the normal end-of-feed path (Flush, Sync, Close),
	// so every detection read before the signal is persisted and
	// acknowledged in the report. Closing the input unblocks a read
	// stuck on a quiet feed (a pipe with no traffic); the resulting read
	// error is expected and suppressed.
	var stopped atomic.Bool
	var closeOnce sync.Once
	var closeErr error
	closeInput := func() { closeOnce.Do(func() { closeErr = rc.Close() }) }
	if *in != "-" {
		defer func() {
			closeInput()
			if closeErr != nil && err == nil && !stopped.Load() {
				err = closeErr
			}
		}()
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	feedDone := make(chan struct{})
	defer close(feedDone)
	go func() {
		select {
		case <-sigCh:
			stopped.Store(true)
			closeInput()
		case <-feedDone:
		}
	}()
	r := io.Reader(rc)
	var target *sitm.Store
	if *storeDir != "" {
		st, err := sitm.OpenStore(*storeDir, sitm.StoreOptions{})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		target = st
	}
	ing := sitm.NewIngestor(target, sitm.IngestOptions{
		Stream: sitm.StreamOptions{Build: sitm.BuildOptions{
			DropZeroDuration: !*keepZero,
			SessionGap:       *gap,
			MergeSameCell:    *merge,
		}},
		BatchSize: *batch,
	})
	errFeedStopped := errors.New("feed interrupted")
	if err := sitm.StreamDetectionsCSV(r, func(d sitm.Detection) error {
		if stopped.Load() {
			return errFeedStopped
		}
		ing.Observe(d)
		return nil
	}); err != nil && !stopped.Load() && !errors.Is(err, errFeedStopped) {
		return err
	}
	if stopped.Load() {
		fmt.Fprintln(out, "ingest: interrupted by signal, flushing what was read")
	}
	ing.Flush()
	stats := ing.Stats()
	st := ing.Store()
	if *storeDir != "" {
		if err := st.Sync(); err != nil {
			return err
		}
		if d, ok := st.Durability(); ok {
			fmt.Fprintf(out, "durable store %s: segment gen %d, %d segments, %d WAL bytes pending compaction\n",
				d.Dir, d.Gen, d.Segments, d.WALBytes)
		}
	}
	sum := st.Summarize()
	fmt.Fprintf(out, "ingested %d detections from %s (%d zero-duration dropped, %d merged)\n",
		stats.Input, src, stats.DroppedZero, stats.Merged)
	fmt.Fprintf(out, "closed %d trajectories into the store (batch size %d)\n", stats.Stored, *batch)
	fmt.Fprintln(out, "store:", sum)
	// The store is live and queryable: report the busiest cells by stay
	// count as proof of life.
	type cellLoad struct {
		cell  string
		stays int
	}
	var loads []cellLoad
	for _, stay := range sitm.LengthOfStay(st.All()) {
		loads = append(loads, cellLoad{stay.Cell, stay.Visits})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].stays != loads[j].stays {
			return loads[i].stays > loads[j].stays
		}
		return loads[i].cell < loads[j].cell
	})
	var rows [][]string
	for i, l := range loads {
		if i == *top {
			break
		}
		rows = append(rows, []string{l.cell, fmt.Sprint(l.stays)})
	}
	fmt.Fprintln(out, "busiest cells")
	fmt.Fprint(out, viz.Table([]string{"cell", "stays"}, rows))
	return nil
}

func runQuery(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	storePath := fs.String("store", "", "JSON store file (as written by Store.WriteJSON) or durable store directory")
	through := fs.String("through", "", "comma-separated cell run: trajectories passing through it consecutively")
	overlap := fs.String("overlap", "", "from,to (RFC 3339): trajectories overlapping the window")
	inCell := fs.String("in-cell", "", "cell,from,to (RFC 3339): MOs present in the cell during the window")
	mo := fs.String("mo", "", "moving-object id (composes into one plan)")
	region := fs.String("region", "", "layer:id hierarchy region, e.g. Wing:denon (composes; needs -model)")
	annotation := fs.String("annotation", "", "k=v trajectory annotation (composes into one plan)")
	model := fs.String("model", "louvre", "space model compiled for -region (only louvre is built in)")
	shards := fs.Int("shards", 0, "store shard count (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("query: -store is required")
	}
	composed := *mo != "" || *region != "" || *annotation != ""
	if !composed && *through == "" && *overlap == "" && *inCell == "" {
		return fmt.Errorf("query: need at least one of -through, -overlap, -in-cell, -mo, -region, -annotation")
	}
	ov, err := parseTimeFlag("overlap", *overlap, false)
	if err != nil {
		return err
	}
	ic, err := parseTimeFlag("in-cell", *inCell, true)
	if err != nil {
		return err
	}
	var st *sitm.Store
	if fi, statErr := os.Stat(*storePath); statErr == nil && fi.IsDir() {
		// A directory is a durable store: recover it instead of parsing
		// JSON. Querying never writes, so it is opened read-only — no WAL
		// is created, appended, or truncated, the directory can be served
		// concurrently by a writer, and a directory that is not a store
		// (no MANIFEST) is an error, not a new empty store.
		st, err = sitm.OpenStore(*storePath, sitm.StoreOptions{Shards: *shards, ReadOnly: true})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	} else {
		f, err := os.Open(*storePath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		st = sitm.NewShardedStore(*shards)
		if err := st.ReadJSON(f); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "store:", st.Summarize())
	if composed {
		// Any of the new flags switches to plan mode: every given predicate
		// composes into one And-plan on the store's query engine.
		return runQueryPlan(st, out, *through, ov, ic, *mo, *region, *annotation, *model)
	}
	if *through != "" {
		cells := strings.Split(*through, ",")
		got := st.ThroughSequence(cells...)
		fmt.Fprintf(out, "through %s: %d trajectories\n", strings.Join(cells, " → "), len(got))
		writeTrajTable(out, got)
	}
	if ov.set {
		got := st.Overlapping(ov.from, ov.to)
		fmt.Fprintf(out, "overlapping [%s, %s]: %d trajectories\n",
			ov.from.Format(time.RFC3339), ov.to.Format(time.RFC3339), len(got))
		writeTrajTable(out, got)
	}
	if ic.set {
		mos := st.InCellDuring(ic.cell, ic.from, ic.to)
		fmt.Fprintf(out, "in cell %s during [%s, %s]: %d MOs\n",
			ic.cell, ic.from.Format(time.RFC3339), ic.to.Format(time.RFC3339), len(mos))
		var rows [][]string
		for _, mo := range mos {
			rows = append(rows, []string{mo})
		}
		fmt.Fprint(out, viz.Table([]string{"mo"}, rows))
	}
	return nil
}

// runQueryPlan composes every given predicate into one And-plan and runs
// it through the store's semantic query engine. -region needs a compiled
// hierarchy; the Louvre model is the built-in one (-model louvre).
func runQueryPlan(st *sitm.Store, out io.Writer, through string, ov, ic timeFlag, mo, region, annotation, model string) error {
	var conjuncts []sitm.StoreQuery
	var desc []string
	if through != "" {
		cells := strings.Split(through, ",")
		conjuncts = append(conjuncts, sitm.QThrough(cells...))
		desc = append(desc, "through "+strings.Join(cells, "→"))
	}
	if ov.set {
		conjuncts = append(conjuncts, sitm.QTimeOverlap(ov.from, ov.to))
		desc = append(desc, fmt.Sprintf("overlap [%s, %s]", ov.from.Format(time.RFC3339), ov.to.Format(time.RFC3339)))
	}
	if ic.set {
		conjuncts = append(conjuncts, sitm.QCellDuring(ic.cell, ic.from, ic.to))
		desc = append(desc, fmt.Sprintf("in %s during [%s, %s]", ic.cell, ic.from.Format(time.RFC3339), ic.to.Format(time.RFC3339)))
	}
	if mo != "" {
		conjuncts = append(conjuncts, sitm.QByMO(mo))
		desc = append(desc, "mo "+mo)
	}
	if region != "" {
		layer, id, ok := strings.Cut(region, ":")
		if !ok || layer == "" || id == "" {
			return fmt.Errorf("query: -region wants layer:id, got %q", region)
		}
		switch model {
		case "louvre":
			sg, h, err := sitm.BuildLouvre()
			if err != nil {
				return err
			}
			rt, err := sitm.CompileRegions(sg, h)
			if err != nil {
				return err
			}
			st.AttachRegions(rt)
		default:
			return fmt.Errorf("query: unknown -model %q (only louvre is built in)", model)
		}
		conjuncts = append(conjuncts, sitm.QRegion(layer, id))
		desc = append(desc, "region "+layer+":"+id)
	}
	if annotation != "" {
		k, v, ok := strings.Cut(annotation, "=")
		if !ok || k == "" {
			return fmt.Errorf("query: -annotation wants k=v, got %q", annotation)
		}
		conjuncts = append(conjuncts, sitm.QHasAnnotation(k, v))
		desc = append(desc, "annotation "+k+"="+v)
	}
	q := conjuncts[0]
	if len(conjuncts) > 1 {
		q = sitm.QAnd(conjuncts...)
	}
	got, err := st.Select(q)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	fmt.Fprintf(out, "plan %s: %d trajectories\n", strings.Join(desc, " ∧ "), len(got))
	writeTrajTable(out, got)
	return nil
}

// timeFlag is a parsed -overlap (from,to) or -in-cell (cell,from,to)
// value; set is false when the flag was not given.
type timeFlag struct {
	set      bool
	cell     string
	from, to time.Time
}

// parseTimeFlag parses the value of the named flag, leading with a cell
// when withCell is true. Both query modes use the result.
func parseTimeFlag(name, v string, withCell bool) (timeFlag, error) {
	f := timeFlag{set: v != ""}
	if !f.set {
		return f, nil
	}
	win := v
	if withCell {
		var ok bool
		if f.cell, win, ok = strings.Cut(v, ","); !ok {
			return f, fmt.Errorf("query: -%s wants cell,from,to", name)
		}
	}
	var err error
	if f.from, f.to, err = parseWindow(win); err != nil {
		return f, fmt.Errorf("query: -%s: %w", name, err)
	}
	return f, nil
}

// parseWindow parses "from,to" as two RFC 3339 timestamps.
func parseWindow(s string) (time.Time, time.Time, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return time.Time{}, time.Time{}, fmt.Errorf("want from,to, got %q", s)
	}
	from, err := time.Parse(time.RFC3339, parts[0])
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	to, err := time.Parse(time.RFC3339, parts[1])
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	return from, to, nil
}

// writeTrajTable renders query-result trajectories (movement sequence =
// consecutive repeats collapsed, the SequencesOf view mining uses).
func writeTrajTable(out io.Writer, trajs []sitm.Trajectory) {
	seqs := sitm.SequencesOf(trajs)
	var rows [][]string
	for i, t := range trajs {
		rows = append(rows, []string{
			t.MO,
			t.Start().Format(time.RFC3339),
			t.End().Format(time.RFC3339),
			strings.Join(seqs[i], " "),
		})
	}
	fmt.Fprint(out, viz.Table([]string{"mo", "start", "end", "cells"}, rows))
}

func runProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	seed := fs.Int64("seed", sitm.DefaultDatasetParams().Seed, "generator seed")
	scale := fs.Float64("scale", 0.1, "population scale factor")
	k := fs.Int("k", 4, "number of visitor profiles (k-medoids clusters)")
	weight := fs.Float64("weight", 0.7, "spatial weight of the similarity blend (DTW vs annotations)")
	topZones := fs.Int("top", 3, "signature zones to report per profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	d, _, err := sitm.GenerateLouvreDataset(params(*seed, *scale))
	if err != nil {
		return err
	}
	trajs, bstats := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})
	if len(trajs) == 0 {
		return fmt.Errorf("no trajectories to profile")
	}
	if *k > len(trajs) {
		*k = len(trajs)
	}
	// The interned pipeline: dictionary-encode once, precompute the
	// hierarchy kernel into a dense cell table, then matrix + k-medoids.
	corpus := sitm.NewSimilarityCorpus(trajs)
	table := corpus.CellTable(sitm.HierarchyCellSimilarity(sg, h))
	cl := corpus.KMedoids(table, *weight, *k, *seed)

	fmt.Fprintf(out, "profiled %d trajectories (from %d detections) into %d visitor profiles\n",
		bstats.Trajectories, bstats.Input, len(cl.Medoids))
	fmt.Fprintf(out, "similarity: hierarchy-aware DTW (weight %.2f) + annotation Jaccard over %d interned cells\n\n",
		*weight, corpus.Dict().Len())
	var rows [][]string
	for c, medoid := range cl.Medoids {
		var members []sitm.Trajectory
		for i, a := range cl.Assign {
			if a == c {
				members = append(members, trajs[i])
			}
		}
		// Like the sibling subcommands' -top, a negative value means "all"
		// (the == break never fires), so no capacity hint from the raw flag.
		var sig []string
		for i, cc := range sitm.VisitCounts(members, nil) {
			if i == *topZones {
				break
			}
			sig = append(sig, cc.Cell)
		}
		m := trajs[medoid]
		rows = append(rows, []string{
			fmt.Sprint(c),
			fmt.Sprint(len(members)),
			m.MO,
			fmt.Sprint(len(m.Trace)),
			m.Duration().Round(time.Second).String(),
			strings.Join(sig, " "),
		})
	}
	fmt.Fprintln(out, "visitor profiles")
	fmt.Fprint(out, viz.Table([]string{"profile", "visits", "medoid", "medoid stays", "medoid duration", "signature zones"}, rows))
	return nil
}

func runGML(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gml", flag.ExitOnError)
	outPath := fs.String("out", "louvre.gml.xml", "output XML path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sg, h, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	if err := writeFile(*outPath, func(w io.Writer) error {
		return gml.Encode(w, sg)
	}); err != nil {
		return err
	}
	// Verify the round trip: decode and revalidate the hierarchy.
	rf, err := os.Open(*outPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	back, err := gml.Decode(rf)
	if err != nil {
		return fmt.Errorf("round trip decode: %w", err)
	}
	if err := h.Validate(back); err != nil {
		return fmt.Errorf("round trip hierarchy: %w", err)
	}
	fmt.Fprintf(out, "wrote %s (%d cells, %d joints); round trip verified\n",
		*outPath, back.NumCells(), len(back.Joints()))
	return nil
}

// runCompact checkpoints a durable store directory: the WAL tail — the
// rows written since the last checkpoint — becomes one more generation of
// immutable columnar segments and the replayed WAL files are deleted, so
// the next open recovers from columns alone. Earlier generations are kept
// as they are; merging them is not done.
func runCompact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("store", "", "durable store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("compact: -store is required")
	}
	st, err := sitm.OpenStore(*dir, sitm.StoreOptions{})
	if err != nil {
		return err
	}
	before, _ := st.Durability()
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return err
	}
	after, _ := st.Durability()
	fmt.Fprintln(out, "store:", st.Summarize())
	fmt.Fprintf(out, "compacted %s: segment gen %d → %d, segments %d → %d, wal bytes %d → %d\n",
		*dir, before.Gen, after.Gen, before.Segments, after.Segments, before.WALBytes, after.WALBytes)
	return st.Close()
}

// runInspect dumps a durable store directory from its file headers:
// manifest, per-segment block layout with zone-map extents, and the
// segments' bytes on disk. Strictly read-only.
func runInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("store", "", "durable store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		return fmt.Errorf("inspect: give the store directory (-store dir or positional)")
	}
	return sitm.InspectStoreDir(*dir, out)
}

func runMine(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	seed := fs.Int64("seed", sitm.DefaultDatasetParams().Seed, "generator seed")
	scale := fs.Float64("scale", 0.1, "population scale factor")
	topK := fs.Int("top", 10, "how many items per report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sg, _, err := sitm.BuildLouvre()
	if err != nil {
		return err
	}
	d, _, err := sitm.GenerateLouvreDataset(params(*seed, *scale))
	if err != nil {
		return err
	}
	trajs, bstats := sitm.BuildTrajectories(d.Detections(), sitm.BuildOptions{
		DropZeroDuration: true,
		SessionGap:       10 * time.Hour,
	})
	fmt.Fprintf(out, "built %d trajectories from %d detections (%d zero-duration dropped)\n\n",
		bstats.Trajectories, bstats.Input, bstats.DroppedZero)

	tm := sitm.NewTransitionMatrix(trajs)
	var rows [][]string
	for _, tr := range tm.Top(*topK) {
		rows = append(rows, []string{tr.From, tr.To, fmt.Sprint(tr.Count),
			fmt.Sprintf("%.2f", tm.Probability(tr.From, tr.To))})
	}
	fmt.Fprintln(out, "top transitions")
	fmt.Fprint(out, viz.Table([]string{"from", "to", "count", "P(to|from)"}, rows))
	fmt.Fprintln(out)

	pats := sitm.PrefixSpan(sitm.SequencesOf(trajs), len(trajs)/20+1, 4)
	rows = rows[:0]
	for i, p := range pats {
		if i == *topK {
			break
		}
		rows = append(rows, []string{strings.Join(p.Cells, " → "), fmt.Sprint(p.Support)})
	}
	fmt.Fprintln(out, "frequent sequential patterns (PrefixSpan)")
	fmt.Fprint(out, viz.Table([]string{"pattern", "support"}, rows))
	fmt.Fprintln(out)

	rules := sitm.MineRules(pats, 0.4)
	rows = rows[:0]
	for i, r := range rules {
		if i == *topK {
			break
		}
		rows = append(rows, []string{
			strings.Join(r.Antecedent, " → "), strings.Join(r.Consequent, " → "),
			fmt.Sprint(r.Support), fmt.Sprintf("%.2f", r.Confidence)})
	}
	fmt.Fprintln(out, "association rules")
	fmt.Fprint(out, viz.Table([]string{"if visited", "then", "support", "confidence"}, rows))
	fmt.Fprintln(out)

	stays := sitm.LengthOfStay(trajs)
	rows = rows[:0]
	for i, s := range stays {
		if i == *topK {
			break
		}
		rows = append(rows, []string{s.Cell, fmt.Sprint(s.Visits),
			s.Mean.Round(time.Second).String(), s.Median.Round(time.Second).String(),
			s.Max.Round(time.Second).String()})
	}
	fmt.Fprintln(out, "length of stay per zone")
	fmt.Fprint(out, viz.Table([]string{"zone", "stays", "mean", "median", "max"}, rows))
	fmt.Fprintln(out)

	switches, err := sitm.FloorSwitches(sg, trajs, sitm.LouvreFloorLayer)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for i, s := range switches {
		if i == *topK {
			break
		}
		rows = append(rows, []string{fmt.Sprint(s.FromFloor), fmt.Sprint(s.ToFloor), fmt.Sprint(s.Count)})
	}
	fmt.Fprintln(out, "floor-switching patterns (§5)")
	fmt.Fprint(out, viz.Table([]string{"from floor", "to floor", "count"}, rows))
	return nil
}
