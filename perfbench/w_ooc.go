package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/serve"
)

// oocWarmup is the share of the run spent filling the page cache
// before measuring.
const oocWarmup = 0.1

// runOOC serves the PPR mix closed-loop from the out-of-core graph:
// the relabeled gstore file opened paged under oocMem, warm-started
// from the snapshot a resident build persisted.
func runOOC(ctx context.Context, r *Run) error {
	in, err := r.Cache.OOCInputs()
	if err != nil {
		return err
	}
	var g *graph.Graph
	var srv *serve.Server
	var setups []float64
	for rep := 0; rep < r.Reps; rep++ {
		if g != nil {
			g.Close()
		}
		settle()
		start := time.Now()
		sp := r.Tr.Begin("gstore.Open", 0, "")
		g, err = gstore.Open(in.Graph, gstore.OpenOptions{Mem: oocMem})
		sp.End()
		if err != nil {
			return err
		}
		sp = r.Tr.Begin("serve.NewService", 0, "")
		srv, _, err = serve.NewService(g, serve.ServiceConfig{
			Build:       serve.BuildConfig{Seed: oocSeed},
			SnapshotDir: in.SnapshotDir,
		})
		sp.End()
		if err != nil {
			return err
		}
		if snap := srv.Snapshot(); snap == nil || !snap.WarmStart {
			return fmt.Errorf("out-of-core service did not warm-start from %s", in.SnapshotDir)
		}
		if err := firstAnswer(srv); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(start)))
	}
	defer g.Close()
	exact, err := readFloats(in.Exact, g.NumVertices())
	if err != nil {
		return err
	}

	n := g.NumVertices()
	gen := func(i int) *OpGen { return NewOpGen(r.Seed, uint64(i), pprMix, n) }
	warm := time.Duration(float64(r.Dur()) * oocWarmup)
	ClosedLoop(ctx, clients(), warm, func(i int) *OpGen { return NewOpGen(r.Seed, uint64(100+i), pprMix, n) },
		NewClient(srv, nil, &r.Fails))

	sampler := &Sampler{current: srv.Snapshot}
	c := NewClient(srv, r.Tr, &r.Fails)
	c.Sample = sampler.Sample
	health := NewHealth()
	regBefore, hBefore := scrape(srv.Metrics()), health.Read()
	pcBefore, _ := g.PageCacheStats()
	start := time.Now()
	win := r.Dur() / measureWindows
	c.SetWindows(start, win, measureWindows)
	watch := StartWatch(win, measureWindows)
	ops := ClosedLoop(ctx, clients(), r.Dur(), gen, c)
	wall := time.Since(start)
	watch.Stop()
	regAfter, hAfter := scrape(srv.Metrics()), health.Read()
	pcAfter, _ := g.PageCacheStats()
	peak := PeakRSSMiB()

	kept := sampler.Kept()
	if !r.Baseline {
		if err := checkResident(r, in, kept); err != nil {
			return err
		}
	}

	qps := float64(ops) / wall.Seconds()
	r.Infof("completions/s per window: %.1f", c.WindowRates())
	mass := massOf(exact, srv.Snapshot())
	resident := float64(16*(n+1) + 4*n)
	r.Named.Set(Metric{Name: "setup_s", Value: Median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))})
	r.Named.Put("qps", qps, "q/s")
	latencyMetrics(r, c, epPPR, epTopK, epRank)
	r.Named.Put("peak_rss_mb", peak, "MiB")
	r.Named.Set(Metric{Name: "mass_k100", Value: mass, Unit: "ratio", Note: "warm-started snapshot"})
	r.Infof("memory: peak_rss %.1f MiB vs -graph-mem %.1f MiB + resident offsets and perm %.1f MiB (computed: 16(n+1)+4n bytes, n=%d)",
		peak, float64(oocMem)/(1<<20), resident/(1<<20), n)

	r.Gate.Put("setup_s", Median(setups), "s")
	r.Gate.Put("latency_p50_ms", c.lat[epPPR].FastWindowP50(measureWindows), "ms")
	r.Gate.Put("throughput_per_s", c.FastWindowRate(), "1/s")
	r.Gate.Put("mass_k100", mass, "ratio")
	r.Gate.Put("rss_mb", watch.WindowPeakRSS(), "MiB")

	if r.Tr == nil {
		return nil
	}
	spans := ByName(r.Tr.Spans())
	r.Layer.Put("gstore.open_s", spans["gstore.Open"].MedianMS()/1000, "s")
	r.Layer.Put("serve.warm_start_s", spans["serve.NewService"].MedianMS()/1000, "s")
	pc := checkAgainstSnapshots(kept, serve.PPROptions{}, &r.Fails, r.Tr)
	servingLayers(r, regBefore, regAfter, wall, pc, c.lat[epTopK].Len())
	// Page-cache counters over the measured window only.
	hits, misses := pcAfter.Hits-pcBefore.Hits, pcAfter.Misses-pcBefore.Misses
	steps := delta(regBefore, regAfter, "ppr_walk_steps_total")
	r.Layer.Put("pcache.hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	r.Layer.Put("pcache.misses", float64(misses), "count")
	r.Layer.Put("pcache.evictions", float64(pcAfter.Evictions-pcBefore.Evictions), "count")
	r.Layer.Put("ppr.page_locality", ratio(delta(regBefore, regAfter, "ppr_walk_page_local_steps_total"), steps), "ratio")
	r.Layer.Set(Metric{Name: "pcache.read_bytes_per_step", Value: ratio(float64(misses)*float64(pcAfter.PageSize), steps),
		Unit: "B/step", Note: "page misses x page size / walk steps"})
	r.Layer.Set(Metric{Name: "graph.resident_bytes", Value: resident, Unit: "B", Note: "offsets 16(n+1) + perm 4n"})
	allocs, bytes := pprAllocs(srv.Snapshot(), pprOps(kept[:min(len(kept), 64)]), serve.PPROptions{})
	r.Layer.Put("ppr.allocs_per_query", allocs, "count")
	r.Layer.Put("ppr.alloc_bytes_per_query", bytes, "B")
	runtimeLayers(r, hBefore, hAfter, ops, watch.Goroutines())
	return nil
}

// checkResident replays kept requests on a resident open of the same
// file, warm-started from the same snapshot: the bytes must be equal.
func checkResident(r *Run, in OOC, kept []sampled) error {
	res, err := gstore.Open(in.Graph, gstore.OpenOptions{})
	if err != nil {
		return err
	}
	defer res.Close()
	srv, _, err := serve.NewService(res, serve.ServiceConfig{
		Build:       serve.BuildConfig{Seed: oocSeed},
		SnapshotDir: in.SnapshotDir,
	})
	if err != nil {
		return err
	}
	checked := checkReplay(kept, srv, "resident open of the same file", &r.Fails)
	r.Infof("output checks: %d sampled bodies replayed byte-for-byte on a resident open", checked)
	return nil
}
