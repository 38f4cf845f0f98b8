package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure read off fewer points is one unlucky request, not a
// property of the system.
const minBeyond = 10

// fallbackPercentiles are tried in order when the asked-for tail has
// too few samples beyond it.
var fallbackPercentiles = []float64{99.9, 99, 98, 97, 96, 95, 90, 80, 75, 50}

// Quantile is a percentile read off a sample set, with the percentile
// actually used (which may be lower than asked, see TailPercentile)
// and the sample count it came from.
type Quantile struct {
	P     float64
	Value float64
	N     int
}

// Label renders the quantile's provenance, e.g. "p97 of 450".
func (q Quantile) Label() string {
	return fmt.Sprintf("p%s of %d", strings.TrimSuffix(fmt.Sprintf("%.1f", q.P), ".0"), q.N)
}

// nearestRank returns the index of the p-th percentile of n sorted
// samples under the nearest-rank definition.
func nearestRank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// Percentile returns the p-th percentile (nearest rank) of samples,
// which must be sorted ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	return sorted[nearestRank(p, len(sorted))]
}

// TailPercentile returns the highest percentile at or below want that
// has at least minBeyond samples strictly beyond its rank. Samples
// must be sorted ascending and non-empty. When not even the median
// qualifies, the median is reported (its label says so).
func TailPercentile(sorted []float64, want float64) Quantile {
	n := len(sorted)
	for _, p := range fallbackPercentiles {
		if p > want {
			continue
		}
		if n-1-nearestRank(p, n) >= minBeyond {
			return Quantile{P: p, Value: Percentile(sorted, p), N: n}
		}
	}
	return Quantile{P: 50, Value: Percentile(sorted, 50), N: n}
}

// QuantileOf returns the p-th percentile (nearest rank) of unsorted
// xs; 0 for none.
func QuantileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, p)
}

// Median returns the median of xs (nearest rank); 0 for none.
func Median(xs []float64) float64 { return QuantileOf(xs, 50) }

// Gated timings are read off the fast quartile of a run's windows (or
// builds): the 25th percentile of times, the 75th of rates. On a
// shared machine other tenants only ever slow a window down, so the
// fast quartile tracks what the code costs while tolerating up to
// three quarters of the windows being disturbed; a change that slows
// every window still moves it.
const (
	fastTime = 25.0
	fastRate = 75.0
)

// Samples collects one endpoint's latencies, each tagged with the
// measurement window it completed in. Safe for concurrent use.
type Samples struct {
	mu  sync.Mutex
	ms  []float64
	win []int
}

// Add records one latency completed in window w.
func (s *Samples) Add(d time.Duration, w int) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.win = append(s.win, w)
	s.mu.Unlock()
}

// Windows groups the latencies of windows 0..n-1, each sorted.
func (s *Samples) Windows(n int) [][]float64 {
	out := make([][]float64, n)
	s.mu.Lock()
	for i, w := range s.win {
		if w >= 0 && w < n {
			out[w] = append(out[w], s.ms[i])
		}
	}
	s.mu.Unlock()
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// FastWindowP50 is the fast-quartile (see fastTime) of the median
// latencies of windows 0..n-1.
func (s *Samples) FastWindowP50(n int) float64 {
	var p50s []float64
	for _, w := range s.Windows(n) {
		if len(w) > 0 {
			p50s = append(p50s, Percentile(w, 50))
		}
	}
	return QuantileOf(p50s, fastTime)
}

// Sorted returns a sorted copy of the recorded latencies in ms.
func (s *Samples) Sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// Len is the number of recorded latencies.
func (s *Samples) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// P50 and Tail summarise the samples (see P50Of and TailOf).
func (s *Samples) P50() Quantile  { return P50Of(s.Sorted()) }
func (s *Samples) Tail() Quantile { return TailOf(s.Sorted()) }

// P50Of is the median of sorted samples; zero-valued without samples.
func P50Of(sorted []float64) Quantile {
	if len(sorted) == 0 {
		return Quantile{}
	}
	return Quantile{P: 50, Value: Percentile(sorted, 50), N: len(sorted)}
}

// TailOf is the p99 of sorted samples under the minBeyond rule;
// zero-valued without samples.
func TailOf(sorted []float64) Quantile {
	if len(sorted) == 0 {
		return Quantile{}
	}
	return TailPercentile(sorted, 99)
}

// Failures counts operations attempted and failed. An operation fails
// when its response is not 2xx, when it errors (timeout, refusal), or
// when its output check finds a mismatch; each operation counts at
// most once. Safe for concurrent use.
type Failures struct {
	mu                            sync.Mutex
	attempted, failed, mismatches int64
	byReason                      map[string]int64
}

// Op records one attempted operation's outcome.
func (f *Failures) Op(status int, err error) bool {
	ok := err == nil && status >= 200 && status < 300
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted++
	if !ok {
		f.failed++
		reason := fmt.Sprintf("status %d", status)
		if err != nil {
			reason = "error: " + err.Error()
		}
		f.note(reason)
	}
	return ok
}

// Mismatch marks an already attempted, successful operation as failed
// because its output check disagreed with the reference path.
func (f *Failures) Mismatch(what string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failed++
	f.mismatches++
	f.note("mismatch: " + what)
}

// Check counts a stand-alone correctness check (one not tied to a
// served request) as an attempted operation.
func (f *Failures) Check(ok bool, what string) {
	f.mu.Lock()
	f.attempted++
	f.mu.Unlock()
	if !ok {
		f.Mismatch(what)
	}
}

func (f *Failures) note(reason string) {
	if f.byReason == nil {
		f.byReason = map[string]int64{}
	}
	f.byReason[reason]++
}

// Merge adds o's counts to f.
func (f *Failures) Merge(o *Failures) {
	o.mu.Lock()
	a, fl, mm := o.attempted, o.failed, o.mismatches
	reasons := make(map[string]int64, len(o.byReason))
	for k, v := range o.byReason {
		reasons[k] = v
	}
	o.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted += a
	f.failed += fl
	f.mismatches += mm
	for k, v := range reasons {
		if f.byReason == nil {
			f.byReason = map[string]int64{}
		}
		f.byReason[k] += v
	}
}

// Totals returns attempted, failed and mismatched counts.
func (f *Failures) Totals() (attempted, failed, mismatches int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempted, f.failed, f.mismatches
}

// Rate is failed over attempted (0 with nothing attempted).
func (f *Failures) Rate() float64 {
	a, fl, _ := f.Totals()
	if a == 0 {
		return 0
	}
	return float64(fl) / float64(a)
}

// Reasons lists the distinct failure reasons with their counts.
func (f *Failures) Reasons() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for r, n := range f.byReason {
		out = append(out, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(out)
	return out
}

// Metric is one reported figure. Computed marks a value derived
// arithmetically from counters rather than measured directly (for
// example bytes inferred from page misses times the page size); its
// unit carries the "computed_" prefix so no reader mistakes it for a
// measured byte count.
type Metric struct {
	Name     string
	Value    float64
	Unit     string
	Computed bool
	Note     string
}

// computedPrefix marks the unit of a Computed metric.
const computedPrefix = "computed_"

// JSONUnit is the unit written to the result line.
func (m Metric) JSONUnit() string {
	if m.Computed && !strings.HasPrefix(m.Unit, computedPrefix) {
		return computedPrefix + m.Unit
	}
	return m.Unit
}

// Metrics is an ordered, name-unique metric set.
type Metrics struct {
	list []Metric
	idx  map[string]int
}

// Set adds or replaces a metric.
func (ms *Metrics) Set(m Metric) {
	if ms.idx == nil {
		ms.idx = map[string]int{}
	}
	if i, ok := ms.idx[m.Name]; ok {
		ms.list[i] = m
		return
	}
	ms.idx[m.Name] = len(ms.list)
	ms.list = append(ms.list, m)
}

// Put is Set for a measured metric.
func (ms *Metrics) Put(name string, v float64, unit string) {
	ms.Set(Metric{Name: name, Value: v, Unit: unit})
}

// PutQ records a quantile with its provenance as the note.
func (ms *Metrics) PutQ(name string, q Quantile) {
	ms.Set(Metric{Name: name, Value: q.Value, Unit: "ms", Note: q.Label()})
}

// Lookup returns a metric and whether it is set.
func (ms *Metrics) Lookup(name string) (Metric, bool) {
	i, ok := ms.idx[name]
	if !ok {
		return Metric{}, false
	}
	return ms.list[i], true
}

// Get returns a metric's value and whether it is set.
func (ms *Metrics) Get(name string) (float64, bool) {
	m, ok := ms.Lookup(name)
	return m.Value, ok
}

// List returns the metrics in insertion order.
func (ms *Metrics) List() []Metric { return ms.list }

// ratio divides, returning 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
