// Command perfbench is the repository's benchmark: one process that
// runs a named workload against the serving stack's public entry
// points, checks its outputs against independent paths, and prints
// every metric by name and unit. The last line of standard output is
// the machine-readable result. See README.md for the workloads, the
// metrics and the layer-to-metric map.
//
//	bash perfbench/run.sh --workload ppr-open --seed 3 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Run carries one measurement of one workload: its knobs, the failure
// count, and the metrics it produced.
type Run struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Reps     int // set-up repetitions; setup_s is their median
	// Baseline marks the untraced half of a traced run, which exists
	// only to compare against: output checks that need a second copy
	// of the graph run in the traced half alone, so they do not inflate
	// the peak RSS both halves report.
	Baseline bool
	Tr       *Tracer // nil: untraced
	Cache    *Cache
	Fails    Failures
	// Gate holds the end-to-end metrics every workload reports (the
	// ones BENCHMARK.json gates), Named the workload's own end-to-end
	// metrics, Layer the per-layer metrics (traced runs).
	Gate, Named, Layer Metrics
	// Info lines are printed with the report (context, not metrics).
	Info []string
}

// Dur is the measured duration.
func (r *Run) Dur() time.Duration { return time.Duration(r.Seconds * float64(time.Second)) }

// Infof adds a context line to the report.
func (r *Run) Infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// clients is the closed-loop caller count: one per core.
func clients() int { return runtime.GOMAXPROCS(0) }

type workload struct {
	name string
	run  func(ctx context.Context, r *Run) error
}

// workloads in BENCHMARK.json order; README.md says why each exists.
var workloads = []workload{
	{"refresh", runRefresh},
	{"ppr-open", runPPROpen},
	{"ooc-ppr", runOOC},
	{"sharded", runSharded},
}

// gateMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order, with their units.
var gateMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"mass_k100", "ratio"},
	{"rss_mb", "MiB"},
}

// measureWindows is how many windows a closed-loop measurement is
// split into for the per-window figures (see fastTime).
const measureWindows = 10

// settle collects garbage and returns freed memory to the OS, so one
// set-up's leftovers do not count against the next or the measurement.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: refresh, ppr-open, ooc-ppr or sharded")
	seed := fs.Uint64("seed", 1, "workload seed (query streams and build seeds derive from it)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: per-layer run (untraced then traced half), 0: end-to-end run")
	cacheDir := fs.String("cache", filepath.Join(".bench_build", "perfbench", "cache"), "directory for prepared inputs and traces")
	prep := fs.String("prep-ooc", "", "internal: prepare the out-of-core inputs into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *prep != "" {
		if err := prepOOC(*prep); err != nil {
			fmt.Fprintln(stderr, "perfbench: prep:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	cache := &Cache{dir: *cacheDir}
	ctx := context.Background()
	newRun := func(secs float64, reps int, tr *Tracer) *Run {
		return &Run{Workload: w.name, Seed: *seed, Seconds: secs, Reps: reps, Tr: tr, Cache: cache}
	}
	if *trace == 0 {
		r := newRun(*seconds, 3, nil)
		if err := w.run(ctx, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		r.Infof("prep_s %.3f s (ungated: input preparation this run paid; 0 when cached)", secs(cache.prep))
		report(stdout, r)
		return emit(stdout, r, gateSet(r))
	}
	// Traced mode: the same workload untraced for half the time, then
	// traced for the other half; the per-layer metrics come from the
	// traced half and trace.overhead compares the two.
	plain := newRun(*seconds/2, 1, nil)
	plain.Baseline = true
	if err := w.run(ctx, plain); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s (untraced half): %v\n", w.name, err)
		return 1
	}
	traced := newRun(*seconds/2, 1, NewTracer())
	if err := w.run(ctx, traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s (traced half): %v\n", w.name, err)
		return 1
	}
	for _, g := range gateMetrics {
		u, _ := plain.Gate.Get(g.name)
		t, _ := traced.Gate.Get(g.name)
		traced.Layer.Put("trace.overhead."+g.name, ratio(t, u), "ratio")
	}
	traced.Layer.Put("prep_s", secs(cache.prep), "s")
	path := filepath.Join(cache.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
	if err := os.MkdirAll(cache.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing trace:", err)
	} else if err := traced.Tr.Write(path); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing trace:", err)
	} else {
		traced.Infof("spans written to %s", path)
	}
	traced.Fails.Merge(&plain.Fails)
	report(stdout, traced)
	return emit(stdout, traced, layerSet(traced))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// gateSet is the gated end-to-end metric set, all present.
func gateSet(r *Run) []Metric {
	var out []Metric
	for _, g := range gateMetrics {
		v, _ := r.Gate.Get(g.name)
		out = append(out, Metric{Name: g.name, Value: v, Unit: g.unit})
	}
	return out
}

// layerSet is the full per-layer metric list in layerMetrics order,
// zero for a layer that did no work on this workload.
func layerSet(r *Run) []Metric {
	var out []Metric
	for _, l := range layerMetrics {
		m := Metric{Name: l.name, Unit: l.unit, Computed: l.computed}
		if got, ok := r.Layer.Lookup(l.name); ok {
			m.Value, m.Note = got.Value, got.Note
		}
		out = append(out, m)
	}
	return out
}

// report prints the human-readable table: the gated metrics, the
// workload's own named end-to-end metrics, the per-layer metrics of a
// traced run, failures and context lines.
func report(w io.Writer, r *Run) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v\n", r.Workload, r.Seed, r.Seconds, r.Tr != nil)
	print := func(m Metric) {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-16s%s\n", m.Name, m.Value, m.JSONUnit(), note)
	}
	fmt.Fprintln(w, "gated end-to-end:")
	for _, m := range gateSet(r) {
		print(m)
	}
	fmt.Fprintln(w, "workload end-to-end:")
	for _, m := range r.Named.List() {
		print(m)
	}
	a, f, mm := r.Fails.Totals()
	fmt.Fprintf(w, "  %-36s %14.6g %-16s  (%d failed of %d attempted, %d output mismatches)\n", "error_rate", r.Fails.Rate(), "ratio", f, a, mm)
	for _, reason := range r.Fails.Reasons() {
		fmt.Fprintln(w, "  failure:", reason)
	}
	if r.Tr != nil {
		fmt.Fprintln(w, "per-layer (0: the layer does no work on this workload):")
		for _, m := range layerSet(r) {
			print(m)
		}
	}
	for _, line := range r.Info {
		fmt.Fprintln(w, "  "+line)
	}
}

// emit prints the result line and returns the exit code.
func emit(w io.Writer, r *Run, ms []Metric) int {
	a, f, mm := r.Fails.Totals()
	res := result{Correct: mm == 0, Attempted: a, Failed: f, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.JSONUnit()}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}
