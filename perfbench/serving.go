package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// scrape reads a registry's counters the way /metrics renders them.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	m, err := obs.ParseText(buf.Bytes())
	if err != nil {
		return nil
	}
	return m
}

// delta is a counter's growth between two scrapes.
func delta(before, after map[string]float64, family string) float64 {
	return obs.FamilySum(after, family) - obs.FamilySum(before, family)
}

// sampleEvery is how often each endpoint's successful responses are
// kept for the output check (1 in N).
var sampleEvery = map[string]int{epTopK: 16, epRank: 16, epPPR: 8, epStats: 64}

// sampled is one kept response and the snapshot current when it
// completed.
type sampled struct {
	Served
	snap *serve.Snapshot
}

// Sampler keeps every Nth successful response per endpoint for the
// output checks run after the load, so checking costs the measured
// path only a counter and an append.
type Sampler struct {
	current func() *serve.Snapshot // nil when the check does not need it
	mu      sync.Mutex
	seen    map[string]int
	kept    []sampled
}

// Sample is a Client.Sample hook.
func (s *Sampler) Sample(sv Served) {
	var snap *serve.Snapshot
	if s.current != nil {
		snap = s.current()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = map[string]int{}
	}
	s.seen[sv.Op.EP]++
	if s.seen[sv.Op.EP]%sampleEvery[sv.Op.EP] == 1 {
		s.kept = append(s.kept, sampled{Served: sv, snap: snap})
	}
}

// Kept returns the kept responses.
func (s *Sampler) Kept() []sampled {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sampled(nil), s.kept...)
}

// snapshotFor finds the snapshot a body was answered from among the
// snapshots seen while sampling.
func snapshotFor(kept []sampled, epoch uint64) *serve.Snapshot {
	for _, k := range kept {
		if k.snap != nil && k.snap.Epoch == epoch {
			return k.snap
		}
	}
	return nil
}

// pprCheck is what checkAgainstSnapshots learned about the PPR kernel
// while re-deriving sampled /v1/ppr answers with serve.PPRTopK.
type pprCheck struct {
	kernelMS []float64 // direct serve.PPRTopK time per sample
	waitMS   []float64 // served latency minus kernel time, where positive
	checked  int
	unknown  int // answered from an epoch no longer held
}

// checkAgainstSnapshots verifies kept /v1/topk, /v1/rank and /v1/ppr
// bodies against independent public paths on the snapshot of the
// body's epoch: Snapshot.TopK, Snapshot.Rank and serve.PPRTopK.
func checkAgainstSnapshots(kept []sampled, opts serve.PPROptions, fails *Failures, tr *Tracer) pprCheck {
	var pc pprCheck
	for _, k := range kept {
		var hdr struct {
			Epoch uint64 `json:"epoch"`
		}
		if k.Op.EP == epStats {
			continue
		}
		if err := json.Unmarshal(k.Body, &hdr); err != nil {
			fails.Mismatch(fmt.Sprintf("%s: undecodable body: %v", k.Op.URL(), err))
			continue
		}
		snap := snapshotFor(kept, hdr.Epoch)
		if snap == nil {
			pc.unknown++
			continue
		}
		pc.checked++
		switch k.Op.EP {
		case epTopK:
			var body api.TopKResponse
			if err := json.Unmarshal(k.Body, &body); err != nil || !sameEntries(body.Entries, snap.TopK(k.Op.K)) {
				fails.Mismatch(fmt.Sprintf("%s at epoch %d differs from Snapshot.TopK", k.Op.URL(), hdr.Epoch))
			}
		case epRank:
			var body api.RankResponse
			want, ok := snap.Rank(graph.VertexID(k.Op.V))
			if err := json.Unmarshal(k.Body, &body); err != nil || !ok || body.Rank != want {
				fails.Mismatch(fmt.Sprintf("%s at epoch %d differs from Snapshot.Rank", k.Op.URL(), hdr.Epoch))
			}
		case epPPR:
			var body api.PPRResponse
			sp := tr.Begin("serve.PPRTopK", 0, k.Req)
			start := time.Now()
			want, _, err := serve.PPRTopK(snap, []graph.VertexID{k.Op.V}, k.Op.K, opts)
			kernel := time.Since(start)
			sp.End()
			pc.kernelMS = append(pc.kernelMS, float64(kernel.Nanoseconds())/1e6)
			if w := k.Latency - kernel; w > 0 {
				pc.waitMS = append(pc.waitMS, float64(w.Nanoseconds())/1e6)
			}
			if jerr := json.Unmarshal(k.Body, &body); err != nil || jerr != nil || !sameEntries(body.Entries, want) {
				fails.Mismatch(fmt.Sprintf("%s at epoch %d differs from serve.PPRTopK", k.Op.URL(), hdr.Epoch))
			}
		}
	}
	return pc
}

// checkReplay re-serves kept requests on a reference handler and
// requires byte-identical bodies (stats bodies carry live counters and
// are only required to succeed).
func checkReplay(kept []sampled, ref http.Handler, what string, fails *Failures) int {
	n := 0
	for _, k := range kept {
		if k.Op.EP == epStats {
			continue
		}
		w := httptest.NewRecorder()
		ref.ServeHTTP(w, httptest.NewRequest(http.MethodGet, k.Op.URL(), nil))
		n++
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), k.Body) {
			fails.Mismatch(fmt.Sprintf("%s differs from the %s", k.Op.URL(), what))
		}
	}
	return n
}

func sameEntries(got []api.TopKEntry, want []topk.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Vertex != want[i].Vertex || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// pprAllocs measures allocations per direct serve.PPRTopK call for the
// sources and k of the given ops, with the load stopped (MemStats
// deltas are process-wide).
func pprAllocs(snap *serve.Snapshot, ops []Op, opts serve.PPROptions) (allocs, bytes float64) {
	if len(ops) == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, op := range ops {
		_, _, _ = serve.PPRTopK(snap, []graph.VertexID{op.V}, op.K, opts) // only the allocations matter here
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ops))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// servingLayers fills the serve and ppr per-layer metrics from the
// server's counters over the measured window.
func servingLayers(r *Run, before, after map[string]float64, wall time.Duration, pc pprCheck, topkReqs int) {
	r.Layer.Put("serve.topk_cache_hit_rate", ratio(delta(before, after, "serve_topk_cache_hits_total"), float64(topkReqs)), "ratio")
	r.Layer.Put("serve.coalesced", delta(before, after, "serve_coalesced_total"), "count")
	reqs := delta(before, after, "ppr_requests_total")
	hits := delta(before, after, "ppr_cache_hits_total")
	steps := delta(before, after, "ppr_walk_steps_total")
	r.Layer.Put("ppr.cache_hit_rate", ratio(hits, reqs), "ratio")
	r.Layer.Put("ppr.walks_per_query", ratio(delta(before, after, "ppr_walks_total"), reqs-hits), "count")
	r.Layer.Put("ppr.walk_steps_per_s", steps/wall.Seconds(), "1/s")
	r.Layer.Put("ppr.batches", delta(before, after, "ppr_batches_total"), "count")
	r.Layer.Put("ppr.truncated", delta(before, after, "ppr_truncated_total"), "count")
	r.Layer.Put("ppr.kernel_ms", Median(pc.kernelMS), "ms")
	r.Layer.Put("ppr.wait_ms", Median(pc.waitMS), "ms")
}

// runtimeLayers fills the runtime per-layer metrics over a window.
func runtimeLayers(r *Run, before, after HealthPoint, ops int64, goroutines float64) {
	r.Layer.Put("runtime.gc_pause_ms", (after.GCPauseSeconds-before.GCPauseSeconds)*1000, "ms")
	r.Layer.Put("runtime.heap_alloc_bytes_per_query", ratio(after.HeapAllocBytes-before.HeapAllocBytes, float64(ops)), "B")
	r.Layer.Put("runtime.goroutines_max", goroutines, "count")
}

// latencyMetrics records p50 and tail latency of each endpoint the
// workload serves, under the workloads' fixed metric names.
func latencyMetrics(r *Run, c *Client, eps ...string) {
	for _, ep := range eps {
		r.Named.PutQ(ep+"_p50_ms", c.lat[ep].P50())
		r.Named.PutQ(ep+"_p99_ms", c.lat[ep].Tail())
	}
}

// firstAnswer issues one query and fails unless it is answered: set-up
// ends at the first answered query.
func firstAnswer(h http.Handler) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/topk?k=10", nil))
	if w.Code != http.StatusOK {
		return fmt.Errorf("first query: status %d: %s", w.Code, w.Body.String())
	}
	return nil
}
