package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99}, // 100 beyond p99
		{1000, 99},  // exactly 10 beyond
		{999, 98},   // 9 beyond p99, 19 beyond p98
		{500, 98},   // 5 beyond p99, 10 beyond p98
		{100, 90},   // only p90 leaves 10
		{40, 75},    // p80 leaves 8, p75 leaves 10
		{11, 50},    // nothing qualifies down to the median
		{3, 50},
	} {
		q := TailPercentile(ramp(tc.n), 99)
		if q.P != tc.wantP || q.N != tc.n {
			t.Errorf("n=%d: got %s, want p%g", tc.n, q.Label(), tc.wantP)
		}
		if beyond := tc.n - int(q.Value); q.P != 50 && beyond < minBeyond {
			t.Errorf("n=%d: %s leaves %d samples beyond, want >= %d", tc.n, q.Label(), beyond, minBeyond)
		}
	}
	if q := TailPercentile(ramp(1000), 99); q.Value != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (nearest rank)", q.Value)
	}
	if q := TailOf(nil); q != (Quantile{}) {
		t.Errorf("TailOf(nil) = %+v, want zero", q)
	}
}

func TestFailuresCountEachOpOnce(t *testing.T) {
	var f Failures
	if !f.Op(200, nil) || !f.Op(204, nil) {
		t.Fatal("2xx counted as failed")
	}
	if f.Op(503, nil) || f.Op(0, errors.New("timeout")) || f.Op(302, nil) {
		t.Fatal("non-2xx or error counted as ok")
	}
	f.Mismatch("body differs") // one of the two 2xx ops above
	f.Check(true, "ok check")
	f.Check(false, "failed check")
	a, failed, mm := f.Totals()
	if a != 7 || failed != 5 || mm != 2 {
		t.Fatalf("attempted %d failed %d mismatches %d, want 7 5 2", a, failed, mm)
	}
	if got := f.Rate(); got != 5.0/7 {
		t.Errorf("rate %g, want 5/7", got)
	}
	var g Failures
	g.Merge(&f)
	g.Op(200, nil)
	if a, failed, _ := g.Totals(); a != 8 || failed != 5 {
		t.Errorf("merged: attempted %d failed %d, want 8 5", a, failed)
	}
	if (&Failures{}).Rate() != 0 {
		t.Error("rate with nothing attempted should be 0")
	}
}

func TestComputedMetricsAreLabelled(t *testing.T) {
	m := Metric{Name: "pcache.read_bytes_per_step", Unit: "B/step", Computed: true}
	if got := m.JSONUnit(); got != "computed_B/step" {
		t.Errorf("computed unit %q, want computed_B/step", got)
	}
	if got := (Metric{Unit: "B"}).JSONUnit(); got != "B" {
		t.Errorf("measured unit %q, want B", got)
	}
	if got := (Metric{Unit: "computed_B", Computed: true}).JSONUnit(); got != "computed_B" {
		t.Errorf("prefix doubled: %q", got)
	}
	computed := map[string]bool{}
	for _, l := range layerMetrics {
		computed[l.name] = l.computed
	}
	for _, name := range []string{"pcache.read_bytes_per_step", "graph.resident_bytes"} {
		if !computed[name] {
			t.Errorf("%s is derived from counters but not labelled computed", name)
		}
	}
}

func span(id, parent uint64, start, end int64) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),
		span(3, 1, 20, 50),  // overlaps 2: the union 10..50 counts once
		span(4, 1, 90, 120), // runs past the parent: only 90..100 counts
		span(5, 3, 25, 35),  // grandchild: charged to 3, not 1
		span(6, 0, 200, 210),
	}
	self := SelfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
	st := ByName([]Span{{ID: 1, Name: "a", Start: 0, End: 4e6}, {ID: 2, Name: "a", Start: 0, End: 2e6}})
	if st["a"].Count != 2 || st["a"].MedianMS() != 2 || st["a"].Self != 6e6 {
		t.Errorf("ByName: %s", st["a"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.BeginRequest("x", "r1")
	sp.End()
	if tr.Spans() != nil || tr.Root("r1") != 0 || sp.ID() != 0 {
		t.Error("nil tracer recorded state")
	}
	tr = NewTracer()
	root := tr.BeginRequest("handler.topk", "r1")
	child := tr.Begin("rpc", tr.Root("r1"), "r1")
	child.End()
	root.End()
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != root.ID() || got[1].Parent != 0 {
		t.Errorf("spans %+v", got)
	}
}

func TestMaxSustainedInterpolatesOnTheTail(t *testing.T) {
	q := func(v float64) Quantile { return Quantile{P: 99, Value: v, N: 1000} }
	steps := []ladderStep{
		{rate: 4000, tail: q(5)},
		{rate: 6000, tail: q(15)},
		{rate: 8000, tail: q(35)},
		{rate: 10000, tail: q(60)},
	}
	if rate, last := maxSustained(steps); rate != 7000 || last != 6000 {
		t.Errorf("got %g (last pass %g), want 7000 (6000)", rate, last)
	}
	steps[2].backlog = 1000 // a growing backlog fails the rung outright
	if rate, _ := maxSustained(steps); rate != 6000 {
		t.Errorf("backlog: got %g, want 6000", rate)
	}
	steps[0].tail = q(30) // a lower rung failing does not cap a higher pass
	if rate, last := maxSustained(steps); rate != 6000 || last != 6000 {
		t.Errorf("failed first rung: got %g (last pass %g), want 6000", rate, last)
	}
	if rate, _ := maxSustained([]ladderStep{{rate: 4000, tail: q(30)}}); rate != 0 {
		t.Errorf("no rung passing: got %g, want 0", rate)
	}
	if rate, _ := maxSustained(steps[:2]); rate != 6000 {
		t.Errorf("top rung passing: got %g, want it", rate)
	}
}

func TestOpGenIsDeterministic(t *testing.T) {
	a, b := NewOpGen(7, 1, pprMix, 1000), NewOpGen(7, 1, pprMix, 1000)
	c := NewOpGen(8, 1, pprMix, 1000)
	same := true
	for i := 0; i < 200; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			t.Fatalf("op %d differs for one seed: %+v vs %+v", i, x, y)
		}
		if x != z {
			same = false
		}
		if x.K < 0 || x.K > maxK || x.V >= 1000 {
			t.Fatalf("op out of range: %+v", x)
		}
	}
	if same {
		t.Error("different seeds gave the same ops")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// lists perfbench prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(gateMetrics) {
		t.Fatalf("%d end_to_end metrics, %d in code", len(doc.EndToEnd), len(gateMetrics))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != gateMetrics[i].name || m.Unit != gateMetrics[i].unit {
			t.Errorf("end_to_end %d: %s/%s vs %s/%s", i, m.Name, m.Unit, gateMetrics[i].name, gateMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, %d in code", len(doc.PerLayer), len(layerMetrics))
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, m := range doc.PerLayer {
		l := layerMetrics[i]
		want := Metric{Unit: l.unit, Computed: l.computed}.JSONUnit()
		if m.Name != l.name || m.Unit != want {
			t.Errorf("per_layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, l.name, want)
		}
		if !unit.MatchString(m.Unit) || !name.MatchString(m.Name) {
			t.Errorf("per_layer %s/%s breaks the name or unit charset", m.Name, m.Unit)
		}
	}
}
