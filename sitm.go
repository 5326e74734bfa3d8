// Package sitm is the public API of a complete Go implementation of
// "Towards a Semantic Indoor Trajectory Model" (Kontarinis, Zeitouni,
// Marinica, Vodislav, Kotzinos — BMDA @ EDBT 2019).
//
// The library models indoor space as an IndoorGML-compatible layered
// multigraph (directed accessibility NRGs per layer, RCC-8 joint edges
// across layers, validated layer hierarchies), and indoor movement as
// semantic trajectories: traces of presence intervals at symbolic cells,
// semantically annotated, segmentable into possibly overlapping episodes.
// On top it offers hierarchical roll-up, topology-based inference of
// missing presence intervals, mining (choropleths, transition matrices,
// PrefixSpan, association rules, floor-switching), similarity metrics and
// clustering, a BLE positioning simulator, the full Louvre case-study
// instantiation, a calibrated synthetic dataset generator, an in-memory
// trajectory store and an IndoorGML-flavoured XML exchange format.
//
// Quick start:
//
//	sg, hierarchy, _ := sitm.BuildLouvre()
//	dataset, _, _ := sitm.GenerateLouvreDataset(sitm.DefaultDatasetParams())
//	trajs, _ := sitm.BuildTrajectories(dataset.Detections(), sitm.BuildOptions{
//		DropZeroDuration: true,
//		SessionGap:       10 * time.Hour,
//	})
//	_ = trajs[0].ValidateAgainst(sg, sitm.LouvreZoneLayer, false)
//	_ = hierarchy
//
// See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the paper-to-package map.
package sitm

import (
	"io"
	"time"

	"sitm/internal/core"
	"sitm/internal/geom"
	"sitm/internal/gml"
	"sitm/internal/indoor"
	"sitm/internal/ingest"
	"sitm/internal/louvre"
	"sitm/internal/mining"
	"sitm/internal/positioning"
	"sitm/internal/similarity"
	"sitm/internal/simulate"
	"sitm/internal/store"
	"sitm/internal/symtab"
	"sitm/internal/topo"
)

// ---- Space model (paper §3.2) ------------------------------------------

// Core indoor space types.
type (
	// SpaceGraph is the layered multigraph G = (V, ⋃Eacc_i ∪ Etop).
	SpaceGraph = indoor.SpaceGraph
	// Layer is one space decomposition (one NRG of the MLSM).
	Layer = indoor.Layer
	// Cell is a symbolic indoor region (IndoorGML cellspace).
	Cell = indoor.Cell
	// Boundary is a named cell boundary (door, stair, checkpoint, ...).
	Boundary = indoor.Boundary
	// JointEdge is an inter-layer edge carrying an RCC-8 relation.
	JointEdge = indoor.JointEdge
	// Hierarchy is a validated layer hierarchy (§3.2).
	Hierarchy = indoor.Hierarchy
	// CoverageReport quantifies the full-coverage hypothesis (Fig 4).
	CoverageReport = indoor.CoverageReport
	// Rel is an RCC-8 base relation.
	Rel = topo.Rel
	// RelSet is a disjunctive set of RCC-8 relations.
	RelSet = topo.Set
	// Point is a planar location.
	Point = geom.Point
	// Polygon is a planar region with optional holes.
	Polygon = geom.Polygon
)

// NewSpaceGraph returns an empty space graph.
func NewSpaceGraph() *SpaceGraph { return indoor.NewSpaceGraph() }

// NewCoreHierarchy returns the paper's Building → Floor → Room hierarchy,
// optionally extended with the BuildingComplex root and RoI leaf.
func NewCoreHierarchy(withComplex, withRoI bool) Hierarchy {
	return indoor.NewCoreHierarchy(withComplex, withRoI)
}

// OverallState is one valid combination of per-layer active states (§2.1).
type OverallState = indoor.OverallState

// EncodeGML writes a space graph as IndoorGML-flavoured XML.
func EncodeGML(w io.Writer, sg *SpaceGraph) error { return gml.Encode(w, sg) }

// DecodeGML parses a document produced by EncodeGML.
func DecodeGML(r io.Reader) (*SpaceGraph, error) { return gml.Decode(r) }

// RCC-8 relations (paper vocabulary: disjoint, meet, overlap, equal,
// coveredBy, insideOf, covers, contains).
const (
	Disjoint  = topo.DC
	Meet      = topo.EC
	Overlap   = topo.PO
	Equal     = topo.EQ
	CoveredBy = topo.TPP
	InsideOf  = topo.NTPP
	Covers    = topo.TPPi
	Contains  = topo.NTPPi
)

// Layer kinds.
const (
	Topographic = indoor.Topographic
	Semantic    = indoor.Semantic
)

// Boundary kinds.
const (
	Wall       = indoor.Wall
	Door       = indoor.Door
	Opening    = indoor.Opening
	Stair      = indoor.Stair
	Elevator   = indoor.Elevator
	Escalator  = indoor.Escalator
	Checkpoint = indoor.Checkpoint
	Virtual    = indoor.Virtual
)

// ---- Trajectory model (paper §3.3) --------------------------------------

// Core SITM types.
type (
	// Trajectory is a semantic trajectory (Def 3.1).
	Trajectory = core.Trajectory
	// Trace is a sequence of presence intervals (Def 3.2).
	Trace = core.Trace
	// PresenceInterval is one (transition, cell, start, end, annotations)
	// tuple.
	PresenceInterval = core.PresenceInterval
	// Annotations is a semantic annotation set.
	Annotations = core.Annotations
	// Episode is a meaningful trajectory part (Def 3.4).
	Episode = core.Episode
	// Segmentation is an episodic segmentation (overlap allowed).
	Segmentation = core.Segmentation
	// Predicate decides episode membership (P_ep of Def 3.4).
	Predicate = core.Predicate
	// Detection is a raw timestamped zone detection (§4.1 data shape).
	Detection = core.Detection
	// BuildOptions tunes detection→trajectory extraction.
	BuildOptions = core.BuildOptions
	// Gap is a temporal discontinuity (hole vs semantic gap).
	Gap = core.Gap
	// GapKind classifies gaps as accidental holes or semantic gaps.
	GapKind = core.GapKind
	// Inference is one reconstructed presence interval (Fig 6).
	Inference = core.Inference
)

// Gap kinds (§2.2, after Parent et al. 2013).
const (
	Hole        = core.Hole
	SemanticGap = core.SemanticGap
)

// NewTrajectory builds and validates a semantic trajectory (Def 3.1).
func NewTrajectory(mo string, trace Trace, ann Annotations) (Trajectory, error) {
	return core.NewTrajectory(mo, trace, ann)
}

// NewAnnotations builds an annotation set from key/value pairs.
func NewAnnotations(pairs ...string) Annotations { return core.NewAnnotations(pairs...) }

// NewEpisode extracts an episode under the three Def 3.4 conditions.
func NewEpisode(parent Trajectory, i, j int, label string, ann Annotations, pred Predicate) (Episode, error) {
	return core.NewEpisode(parent, i, j, label, ann, pred)
}

// EpisodesByCells extracts maximal episodes over a cell set (Fig 5).
func EpisodesByCells(parent Trajectory, cells map[string]bool, label string, ann Annotations) []Episode {
	return core.EpisodesByCells(parent, cells, label, ann)
}

// BuildTrajectories extracts semantic trajectories from raw detections.
func BuildTrajectories(dets []Detection, opts BuildOptions) ([]Trajectory, core.BuildStats) {
	return core.BuildTrajectories(dets, opts)
}

// InferMissing reconstructs undetected presence intervals along
// accessibility shortest paths (the paper's Zone-60888 example, Fig 6).
func InferMissing(sg *SpaceGraph, tr Trace, extra Annotations, failHard bool) (Trace, []Inference, error) {
	return core.InferMissing(sg, tr, extra, failHard)
}

// GapClassifier decides whether a gap is a hole or a semantic gap.
type GapClassifier = core.GapClassifier

// ExitAwareClassifier classifies gaps using cell semantics (§4.2:
// disappearing after an exit zone is normal).
func ExitAwareClassifier(sg *SpaceGraph, isExit func(cell string) bool, longGap time.Duration) GapClassifier {
	return core.ExitAwareClassifier(sg, isExit, longGap)
}

// AnnotateGaps records classified gaps as transition annotations.
func AnnotateGaps(tr Trace, minDur time.Duration, cls GapClassifier) Trace {
	return core.AnnotateGaps(tr, minDur, cls)
}

// ---- Louvre case study (paper §4) ---------------------------------------

// Louvre layer names.
const (
	LouvreMuseumLayer = louvre.LayerMuseum
	LouvreWingLayer   = louvre.LayerWing
	LouvreFloorLayer  = louvre.LayerFloor
	LouvreZoneLayer   = louvre.LayerZone
	LouvreRoomLayer   = louvre.LayerRoom
	LouvreRoILayer    = louvre.LayerRoI
)

// Zone is one of the Louvre's 52 thematic zones.
type Zone = louvre.Zone

// BuildLouvre constructs the full Louvre space graph and its hierarchy.
func BuildLouvre() (*SpaceGraph, Hierarchy, error) { return louvre.Build() }

// LouvreZones returns the 52-zone table.
func LouvreZones() []Zone { return louvre.Zones() }

// LouvreFigure1 builds the paper's Figure 1 Denon fragment.
func LouvreFigure1() (*SpaceGraph, error) { return louvre.Figure1() }

// Table1 returns the paper's Table 1 terminology correspondence.
func Table1() []indoor.Table1Row { return indoor.Table1() }

// ---- Synthetic dataset (substitute for the proprietary data) ------------

// Dataset types.
type (
	// DatasetParams calibrate the generator.
	DatasetParams = simulate.Params
	// Dataset is a generated synthetic dataset.
	Dataset = simulate.Dataset
	// DatasetStats are the §4.1 marginals of a dataset.
	DatasetStats = simulate.Stats
)

// DefaultDatasetParams returns the paper's §4.1 calibration.
func DefaultDatasetParams() DatasetParams { return simulate.DefaultParams() }

// GenerateLouvreDataset generates a calibrated synthetic dataset over the
// Louvre model and returns the space graph used.
func GenerateLouvreDataset(p DatasetParams) (*Dataset, *SpaceGraph, error) {
	return simulate.GenerateLouvre(p)
}

// ComputeDatasetStats derives the §4.1 statistics from a dataset.
func ComputeDatasetStats(d *Dataset) DatasetStats { return simulate.ComputeStats(d) }

// ---- Analytics -----------------------------------------------------------

// Mining types.
type (
	// CellCount is a per-cell tally (Fig 3 choropleth unit).
	CellCount = mining.CellCount
	// TransitionMatrix is a first-order Markov transition model.
	TransitionMatrix = mining.TransitionMatrix
	// Pattern is a frequent sequential pattern.
	Pattern = mining.Pattern
	// Rule is a sequential association rule.
	Rule = mining.Rule
	// StayStats summarise per-cell length of stay.
	StayStats = mining.StayStats
	// FloorSwitch is a floor-change pattern (§5).
	FloorSwitch = mining.FloorSwitch
)

// DetectionCounts tallies detections per cell (Fig 3). Large streams are
// counted in parallel: keep must be safe for concurrent calls (pure
// predicates are).
func DetectionCounts(dets []Detection, keep func(cell string) bool) []CellCount {
	return mining.DetectionCounts(dets, keep)
}

// VisitCounts tallies trajectories touching each cell at least once
// (distinct-visitor footfall). Large sets are counted in parallel; keep
// must be safe for concurrent calls (pure predicates are).
func VisitCounts(trajs []Trajectory, keep func(cell string) bool) []CellCount {
	return mining.VisitCounts(trajs, keep)
}

// NewTransitionMatrix counts directed transitions over trajectories.
func NewTransitionMatrix(trajs []Trajectory) *TransitionMatrix {
	return mining.NewTransitionMatrix(trajs)
}

// PrefixSpan mines frequent sequential patterns.
func PrefixSpan(sequences [][]string, minSupport, maxLen int) []Pattern {
	return mining.PrefixSpan(sequences, minSupport, maxLen)
}

// SymbolDict is a dense string↔int32 symbol dictionary (the
// dictionary-encoding substrate of the store and the analytics engine).
type SymbolDict = symtab.Dict

// PrefixSpanInterned mines frequent sequential patterns over sequences
// that are already dictionary-encoded — the zero-re-encode handoff from
// Store.Sequences: patterns come out bit-for-bit equal to PrefixSpan on
// the decoded sequences, without re-interning the corpus.
func PrefixSpanInterned(dict *SymbolDict, seqs [][]int32, minSupport, maxLen int) []Pattern {
	return mining.PrefixSpanInterned(dict, seqs, minSupport, maxLen)
}

// PrefixSpanRegions mines frequent sequential patterns at the granularity
// of a hierarchy layer: interned leaf sequences (e.g. from Store.Sequences)
// roll up through a compiled RegionTable with run-collapsing before the
// pattern-growth miner runs — "which wing-to-wing routes are frequent",
// not just zone-to-zone.
func PrefixSpanRegions(dict *SymbolDict, seqs [][]int32, rt *RegionTable, layer string, minSupport, maxLen int) ([]Pattern, error) {
	return mining.PrefixSpanRegions(dict, seqs, rt, layer, minSupport, maxLen)
}

// SequencesOf extracts deduplicated cell sequences from trajectories.
func SequencesOf(trajs []Trajectory) [][]string { return mining.SequencesOf(trajs) }

// MineRules derives association rules from mined patterns.
func MineRules(patterns []Pattern, minConfidence float64) []Rule {
	return mining.Rules(patterns, minConfidence)
}

// LengthOfStay computes per-cell stay statistics.
func LengthOfStay(trajs []Trajectory) []StayStats { return mining.LengthOfStay(trajs) }

// FloorSwitches tallies floor-change patterns after rolling up to the floor
// layer.
func FloorSwitches(sg *SpaceGraph, trajs []Trajectory, floorLayer string) ([]FloorSwitch, error) {
	return mining.FloorSwitches(sg, trajs, floorLayer)
}

// ---- Similarity and profiling -------------------------------------------

// CellSimilarity scores semantic closeness of two cells in [0, 1].
type CellSimilarity = similarity.CellSimilarity

// Interned analytics core: trajectories are dictionary-encoded once
// (cells → dense int32 ids, annotation pairs → sorted id sets) and the
// similarity/clustering kernels run over flat integer data with reusable
// scratch — the fast path for bulk profiling (experiment E6).
type (
	// SimilarityCorpus is an interned, immutable view of a trajectory set.
	SimilarityCorpus = similarity.Corpus
	// CellSimTable is a cell similarity precomputed into a dense k×k table
	// over a corpus's cell alphabet (one hierarchy walk per cell pair
	// total, instead of one per occurrence per trajectory pair).
	CellSimTable = similarity.CellSimTable
	// Clusters is a k-medoids clustering result.
	Clusters = similarity.Clusters
)

// NewSimilarityCorpus interns the trajectories for bulk similarity work.
// The corpus's PairwiseMatrix/KMedoids produce bit-for-bit the results of
// the string-based entry points below, an order of magnitude faster.
func NewSimilarityCorpus(trajs []Trajectory) *SimilarityCorpus {
	return similarity.NewCorpus(trajs)
}

// HierarchyCellSimilarity is a Wu–Palmer-style similarity over a layer
// hierarchy.
func HierarchyCellSimilarity(sg *SpaceGraph, h Hierarchy) CellSimilarity {
	return similarity.HierarchyCellSimilarity(sg, h)
}

// TrajectorySimilarity blends spatial (DTW) and semantic (annotation
// Jaccard) similarity.
func TrajectorySimilarity(a, b Trajectory, sim CellSimilarity, spatialWeight float64) float64 {
	return similarity.TrajectorySimilarity(a, b, sim, spatialWeight)
}

// SimilarityMatrix computes the full pairwise similarity matrix of the
// trajectories, evaluating the (symmetric) kernel only on the upper
// triangle, in parallel across all CPUs, and mirroring the result. simFn
// must be safe for concurrent calls.
func SimilarityMatrix(trajs []Trajectory, simFn func(a, b Trajectory) float64) [][]float64 {
	return similarity.PairwiseMatrix(trajs, simFn)
}

// KMedoids clusters trajectories for visitor profiling. The pairwise
// matrix is computed in parallel via SimilarityMatrix, so simFn must be
// safe for concurrent calls (pure kernels like TrajectorySimilarity are).
// Bulk pipelines should prefer NewSimilarityCorpus + Corpus.KMedoids.
func KMedoids(trajs []Trajectory, k int, simFn func(a, b Trajectory) float64, seed int64) Clusters {
	return similarity.KMedoids(trajs, k, simFn, seed)
}

// KMedoidsMatrix clusters by a precomputed similarity matrix (as returned
// by SimilarityMatrix or SimilarityCorpus.PairwiseMatrix), letting callers
// reuse one matrix across several k or seed choices. The refinement uses
// cached nearest/second-nearest distances, so a full candidate sweep of a
// medoid slot costs O(n²) rather than the naive O(n²·k).
func KMedoidsMatrix(sim [][]float64, k int, seed int64) Clusters {
	return similarity.KMedoidsMatrix(sim, k, seed)
}

// ---- Storage --------------------------------------------------------------

// Store is a concurrency-safe in-memory trajectory store: a sharded,
// dictionary-encoded engine. Cell and MO names are interned once at write
// time; trajectories hash by MO across shards, each with its own lock,
// integer posting lists and per-block zone maps, so Overlapping and
// InCellDuring skip every block of rows the window cannot touch and
// ThroughSequence intersects integer posting lists before integer
// sequence-checking. Read queries fan out across shards and merge in
// insertion order. GetByMO and GetThroughCell report missing keys as
// ErrNotFound.
//
// Because encoding happens at write time, Store.Corpus hands the contents
// to the similarity engine and Store.Sequences to the mining engine with
// zero re-encoding (experiment E7).
type Store = store.Store

// ErrNotFound is returned by the store's Get-style queries when the key
// has no stored trajectories.
var ErrNotFound = store.ErrNotFound

// NewStore returns an empty trajectory store (GOMAXPROCS shards).
func NewStore() *Store { return store.New() }

// NewShardedStore returns an empty trajectory store with an explicit shard
// count (0 = GOMAXPROCS). Every shard count is observably equivalent; more
// shards buy write concurrency under multi-feed ingestion.
func NewShardedStore(shards int) *Store { return store.NewSharded(shards) }

// StoreOptions configures OpenStore: the shard count of a fresh
// directory, read-only mode, the filesystem durability I/O goes through,
// and the byte budget of the store's cache of decoded segment blocks
// (0 = the 64 MiB default, negative caches nothing).
type StoreOptions = store.Options

// DurableStats reports a durable store's on-disk state (see
// Store.Durability): directory, newest committed segment generation, the
// number of committed segments, and live WAL bytes since the last
// checkpoint.
type DurableStats = store.DurableStats

// OpenStore opens (creating if needed) a durable trajectory store rooted
// at dir. Writes append to a per-shard write-ahead log before touching the
// in-memory indexes; Store.Sync makes everything written so far crash
// durable, Store.Checkpoint writes the rows logged since the previous
// checkpoint as one more generation of immutable columnar segments, and
// Store.Close flushes and releases the directory. Reopening replays every
// generation's segments and the WAL tail, truncating any torn tail a crash left
// behind (experiment E9).
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// BlockCacheStats reports the occupancy and hit/miss/eviction counters of
// a durable store's cache of lazily decoded segment blocks (experiment
// E11; see Store.BlockCacheStats).
type BlockCacheStats = store.BlockCacheStats

// InspectStoreDir writes a human-readable report of a durable store
// directory — manifest, per-segment block layout and zone-map extents,
// and the segments' bytes on disk — from file headers alone, without
// modifying it. It backs the `sitm inspect` subcommand.
func InspectStoreDir(dir string, w io.Writer) error { return store.InspectDir(dir, w) }

// ---- Semantic query planner ------------------------------------------------

// The store's composable query AST: predicates constructed with the Q*
// functions below compile — per query, against the store's interned
// dictionaries and attached hierarchy — into posting-list and bitmap
// algebra executed per shard with selectivity-ordered plans
// (Store.Select, Store.SelectMOs). The canned Overlapping/InCellDuring/
// ThroughSequence methods are thin wrappers over the same engine.
type (
	// StoreQuery is one node of the store's query AST.
	StoreQuery = store.Query
	// RegionTable is a compiled hierarchy: dense region indexes over every
	// hierarchy cell, ancestor closures, member sets (CompileRegions).
	RegionTable = indoor.RegionTable
	// RegionRef names a region as a (hierarchy layer, cell id) pair.
	RegionRef = indoor.RegionRef
)

// Errors reported by region queries (Store.Select / Store.SelectMOs).
var (
	// ErrNoRegions: a region predicate ran on a store without an attached
	// region table (Store.AttachRegions).
	ErrNoRegions = store.ErrNoRegions
	// ErrUnknownRegion: a region predicate named a (layer, id) pair the
	// attached table does not contain.
	ErrUnknownRegion = store.ErrUnknownRegion
)

// CompileRegions validates the hierarchy against the space graph and
// compiles it into a frozen RegionTable — attach it to a store with
// Store.AttachRegions to make every hierarchy cell a queryable region.
func CompileRegions(sg *SpaceGraph, h Hierarchy) (*RegionTable, error) {
	return indoor.CompileRegions(sg, h)
}

// QCell matches trajectories visiting the cell at least once.
func QCell(name string) StoreQuery { return store.Cell(name) }

// QRegion matches trajectories touching any cell of the region's subtree
// (a hierarchy cell addressed as layer:id, e.g. QRegion("Wing", "denon")).
func QRegion(layer, id string) StoreQuery { return store.Region(layer, id) }

// QTimeOverlap matches trajectories whose span intersects [from, to].
func QTimeOverlap(from, to time.Time) StoreQuery { return store.TimeOverlap(from, to) }

// QByMO matches the trajectories of one moving object.
func QByMO(mo string) StoreQuery { return store.ByMO(mo) }

// QHasAnnotation matches trajectories annotated with value under key.
func QHasAnnotation(key, value string) StoreQuery { return store.HasAnnotation(key, value) }

// QThrough matches trajectories passing through the cells consecutively.
func QThrough(cells ...string) StoreQuery { return store.Through(cells...) }

// QThroughRegions matches trajectories passing through the regions in
// order — "through Wing Denon then Floor denon:1"; regions may live at
// different hierarchy layers.
func QThroughRegions(refs ...RegionRef) StoreQuery { return store.ThroughRegions(refs...) }

// QCellDuring matches trajectories with a presence interval at the cell
// intersecting [from, to] (the InCellDuring predicate).
func QCellDuring(cell string, from, to time.Time) StoreQuery {
	return store.CellDuring(cell, from, to)
}

// QAnd matches trajectories satisfying every sub-query.
func QAnd(qs ...StoreQuery) StoreQuery { return store.And(qs...) }

// QOr matches trajectories satisfying at least one sub-query.
func QOr(qs ...StoreQuery) StoreQuery { return store.Or(qs...) }

// ---- Streaming ingestion -------------------------------------------------

// Streaming types: the online counterparts of the batch extraction path.
type (
	// StreamSegmenter consumes detections incrementally and emits presence
	// intervals, trajectories, gap annotations and episodes as they close.
	StreamSegmenter = core.StreamSegmenter
	// StreamOptions tune the online segmenter (gap annotation, episode
	// specs, interval/episode callbacks).
	StreamOptions = core.StreamOptions
	// EpisodeSpec names one episode kind extracted online.
	EpisodeSpec = core.EpisodeSpec
	// BuildStats report what extraction (batch or streaming) did.
	BuildStats = core.BuildStats
	// Ingestor pumps a detection stream into an incrementally-indexed
	// store; queries interleave freely with ingestion.
	Ingestor = ingest.Ingestor
	// IngestOptions tune an Ingestor (segmenter options + batch size).
	IngestOptions = ingest.Options
	// IngestStats report ingestion progress.
	IngestStats = ingest.Stats
	// StreamAggregator converts live position fixes to zone detections
	// online (the positioning → ingestion adapter).
	StreamAggregator = positioning.StreamAggregator
	// ZoneIndex map-matches position fixes to zone cells.
	ZoneIndex = positioning.ZoneIndex
	// AggregateOptions tune fix→detection aggregation.
	AggregateOptions = positioning.AggregateOptions
)

// NewStreamSegmenter returns an online segmenter; it agrees with
// BuildTrajectories on identical input regardless of feed chunking.
func NewStreamSegmenter(opts StreamOptions) *StreamSegmenter {
	return core.NewStreamSegmenter(opts)
}

// NewIngestor returns a live ingestion engine feeding st (a fresh store
// when nil).
func NewIngestor(st *Store, opts IngestOptions) *Ingestor { return ingest.New(st, opts) }

// NewZoneIndex indexes the geometry-bearing cells of a layer for
// fix→zone map-matching.
func NewZoneIndex(sg *SpaceGraph, layerID string) *ZoneIndex {
	return positioning.NewZoneIndex(sg, layerID)
}

// NewStreamAggregator returns an online fix→detection aggregator.
func NewStreamAggregator(idx *ZoneIndex, opts AggregateOptions) *StreamAggregator {
	return positioning.NewStreamAggregator(idx, opts)
}

// StreamDetectionsCSV reads a detections CSV row by row, invoking fn per
// detection as soon as it parses — the file/stdin feed ingestion path.
func StreamDetectionsCSV(r io.Reader, fn func(Detection) error) error {
	return store.StreamDetectionsCSV(r, fn)
}

// WriteDetectionsCSV writes raw detections as mo,cell,start,end CSV.
func WriteDetectionsCSV(w io.Writer, dets []Detection) error {
	return store.WriteDetectionsCSV(w, dets)
}

// ---- Positioning -----------------------------------------------------------

// Positioning types.
type (
	// Beacon is a BLE transmitter.
	Beacon = positioning.Beacon
	// PathLoss is the log-distance RSSI model.
	PathLoss = positioning.PathLoss
	// Measurement is one RSSI observation.
	Measurement = positioning.Measurement
	// Fix is one filtered position estimate.
	Fix = positioning.Fix
)

// Trilaterate estimates a position from RSSI measurements.
func Trilaterate(beacons map[string]Beacon, meas []Measurement, model PathLoss) (Point, error) {
	return positioning.Trilaterate(beacons, meas, model)
}

// LouvreBeacons lays out the museum's ~1800-beacon infrastructure.
func LouvreBeacons() map[string]Beacon { return louvre.Beacons() }
