// Command perfbench is sitm's end-to-end benchmark. It generates a seeded
// Louvre-shaped detection feed, serves it through an in-process sitmd
// (server.New over a durable store with the Louvre regions attached) on a
// loopback listener, drives one of three closed-loop workloads against it,
// checks every answer against an in-memory reference store, and prints
// its metrics. WORKLOADS.md describes the workloads and metrics.
//
// Usage (from the root of a checkout, which run.sh builds it in):
//
//	bash perfbench/run.sh --workload query_select --seed 1 --seconds 10 --trace 0
//
// Every workload reports every metric. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it runs the workload untraced and then
// traced, timing each layer's public functions per request, and reports
// the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // private scratch directory for store dirs
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report collects a run's metrics, printed lines and correctness.
type report struct {
	res   result
	lines []string
	mu    sync.Mutex // guards res.Correct: clients report mismatches concurrently
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metricOut{}}}
}

// metric records one metric; n is its sample count, note any detail
// worth printing beside it (such as the samples beyond a tail percentile).
func (r *report) metric(name, unit string, v float64, n int, note string) {
	r.res.Metrics[name] = metricOut{Value: v, Unit: unit}
	line := fmt.Sprintf("%-40s %14.4f %-7s n=%d", name, v, unit, n)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// count adds a request class's attempts and failures to the result.
func (r *report) count(t *tally) {
	r.res.Attempted += t.attempted
	r.res.Failed += t.failed
}

// failShare is the share of attempted requests that failed.
func (r *report) failShare() float64 {
	if r.res.Attempted == 0 {
		return 0
	}
	return float64(r.res.Failed) / float64(r.res.Attempted)
}

// mismatch records a wrong answer: the run is reported incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: "+format+"\n", args...)
	}
	r.res.Correct = false
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 10, "seconds the measured rounds run")
	trace := flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's store dirs")
	flag.Parse()
	sh, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	rep := newReport()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := runWorkload(cfg, rep, sh); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if rep.res.Attempted < 1 {
		return fmt.Errorf("%s attempted no requests", *workload)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("%-40s %14.4f share  (%d of %d requests)\n", "failed", rep.failShare(), rep.res.Failed, rep.res.Attempted)
	out, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.res.Correct {
		return errors.New("answers differ from the reference store")
	}
	return nil
}

// scratchDir returns a fresh, empty store directory under the run's dir.
func (c config) scratchDir(name string) (string, error) {
	d := filepath.Join(c.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// heapAfterGC returns the live heap after two full collections: memory
// reachable only from an object with a finalizer, such as a closed
// connection's server state, is freed one collection after the finalizer
// is queued.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
