package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Serving defaults, spelled out for the traced split of serve.Build
// (serve.BuildConfig's zero value selects the same: FrogWild, N=n/6,
// t=4, ps=0.7, 16 simulated machines, random ingress).
const (
	buildIterations = 4
	buildPS         = 0.7
	buildMachines   = 16
	massK           = 100
	// massFloor is the captured-mass floor below which a build counts
	// as a failed output check (today's builds capture 0.93–0.96).
	massFloor = 0.85
)

func buildWalkers(n int) int { return max(n/6, 100) }

// buildSeed derives build i's seed from the workload seed.
func buildSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) }

// splitBuild is serve.Build taken apart at its layer boundaries —
// cluster.NewLayout, frogwild.Run on the prebuilt layout, and
// serve.FromRanks — with a span around each call. Its ranks must be
// byte-equal to serve.Build's for the same seed.
func splitBuild(g *graph.Graph, seed uint64, tr *Tracer) (*serve.Snapshot, *frogwild.Result, error) {
	root := tr.Begin("refresh.build", 0, "")
	defer root.End()
	sp := tr.Begin("cluster.NewLayout", root.ID(), "")
	lay, err := cluster.NewLayout(g, buildMachines, nil, seed)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.Begin("frogwild.Run", root.ID(), "")
	res, err := frogwild.Run(g, frogwild.Config{
		Walkers: buildWalkers(g.NumVertices()), Iterations: buildIterations, PS: buildPS,
		Machines: buildMachines, Seed: seed, Layout: lay,
	})
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.Begin("serve.FromRanks", root.ID(), "")
	snap, err := serve.FromRanks(g, serve.EngineFrogWild, seed, res.Estimate, serve.DefaultMaxK)
	sp.End()
	return snap, res, err
}

// sameRanks reports whether two rank vectors are bit-identical.
func sameRanks(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runRefresh measures back-to-back snapshot builds on the serving
// graph, one caller, a fresh derived seed per build. Untraced builds
// call serve.Build; traced builds run the split so each stage gets a
// span. Either way one build per run is made both ways and must agree
// bit for bit.
func runRefresh(ctx context.Context, r *Run) error {
	var g *graph.Graph
	var setups []float64
	for rep := 0; rep < r.Reps; rep++ {
		g = nil
		settle()
		start := time.Now()
		var err error
		if g, err = servingGraph(r.Tr); err != nil {
			return err
		}
		if _, err := build(g, buildSeed(r.Seed, 0), r.Tr); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(start)))
	}
	ref, err := r.Cache.ServingRef(g)
	if err != nil {
		return err
	}

	var builds, masses []float64
	var first *serve.Snapshot
	settle()
	health := NewHealth()
	hBefore := health.Read()
	watch := StartWatch(r.Dur()/measureWindows, measureWindows)
	deadline := time.Now().Add(r.Dur())
	for i := 1; ctx.Err() == nil && (len(builds) == 0 || time.Now().Before(deadline)); i++ {
		start := time.Now()
		snap, err := build(g, buildSeed(r.Seed, i), r.Tr)
		if err != nil {
			return err
		}
		builds = append(builds, secs(time.Since(start)))
		mass := massOf(ref, snap)
		masses = append(masses, mass)
		r.Fails.Check(mass >= massFloor, fmt.Sprintf("build %d: mass_k100 %.4f below floor %.2f", i, mass, massFloor))
		if first == nil {
			first = snap
		}
	}

	watch.Stop()
	hAfter := health.Read()

	// Cross-check the first measured build the other way: the split
	// path against serve.Build (or the reverse when traced).
	seed1 := buildSeed(r.Seed, 1)
	split, res, err := splitBuild(g, seed1, nil)
	if err != nil {
		return err
	}
	whole, err := serve.Build(g, serve.BuildConfig{Seed: seed1})
	if err != nil {
		return err
	}
	r.Fails.Check(sameRanks(split.Ranks, whole.Ranks) && sameRanks(first.Ranks, whole.Ranks),
		"split build (NewLayout + frogwild.Run(Layout) + FromRanks) ranks differ from serve.Build")
	r.Fails.Check(res.LostFrogs == 0, fmt.Sprintf("frogwild lost %d frogs", res.LostFrogs))

	refreshS := Median(builds)
	r.Infof("build seconds, in order: %.3f", builds)
	r.Named.Set(Metric{Name: "setup_s", Value: Median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))})
	r.Named.Set(Metric{Name: "refresh_s", Value: refreshS, Unit: "s", Note: fmt.Sprintf("median of %d builds", len(builds))})
	r.Named.Put("refresh_net_bytes", float64(res.Stats.Net.TotalBytes), "B")
	r.Named.Set(Metric{Name: "mass_k100", Value: Median(masses), Unit: "ratio", Note: "median over builds"})
	r.Named.Put("peak_rss_mb", PeakRSSMiB(), "MiB")

	r.Gate.Put("setup_s", Median(setups), "s")
	fast := QuantileOf(builds, fastTime)
	r.Gate.Put("latency_p50_ms", fast*1000, "ms")
	r.Gate.Put("throughput_per_s", ratio(1, fast), "1/s")
	r.Gate.Put("mass_k100", Median(masses), "ratio")
	r.Gate.Put("rss_mb", watch.WindowPeakRSS(), "MiB")

	if r.Tr == nil {
		return nil
	}
	// Per-layer split from the traced builds.
	spans := ByName(r.Tr.Spans())
	layout, engine, index := spans["cluster.NewLayout"], spans["frogwild.Run"], spans["serve.FromRanks"]
	r.Layer.Put("gen.powerlaw_s", spans["gen.PowerLaw"].MedianMS()/1000, "s")
	r.Layer.Put("cluster.layout_s", layout.MedianMS()/1000, "s")
	r.Layer.Put("cluster.replication", res.Layout.ReplicationFactor(), "ratio")
	r.Layer.Put("gas.engine_s", engine.MedianMS()/1000, "s")
	r.Layer.Put("topk.index_s", index.MedianMS()/1000, "s")
	st := res.Stats
	r.Layer.Put("gas.supersteps", float64(st.Supersteps), "count")
	r.Layer.Put("gas.edge_ops", float64(st.Net.EdgeOps), "count")
	r.Layer.Put("gas.vertex_ops", float64(st.Net.VertexOps), "count")
	r.Layer.Put("gas.sim_s", st.SimSeconds, "s")
	for _, c := range []struct {
		name  string
		class cluster.TrafficClass
	}{{"gather", cluster.TrafficGather}, {"sync", cluster.TrafficSync}, {"signal", cluster.TrafficSignal}, {"control", cluster.TrafficControl}} {
		r.Layer.Put("gas.net_bytes."+c.name, float64(st.Net.ClassBytes(c.class)), "B")
	}
	runtimeLayers(r, hBefore, hAfter, int64(len(builds)), watch.Goroutines())
	stages := layout.MedianMS() + engine.MedianMS() + index.MedianMS()
	r.Layer.Put("refresh.stage_self_s", stages/1000, "s")
	r.Layer.Put("refresh.stage_coverage", ratio(stages/1000, refreshS), "ratio")
	r.Infof("stage self-times sum to %.3fs of a %.3fs traced build (%s; %s; %s)",
		stages/1000, refreshS, layout, engine, index)
	return nil
}

// build runs one snapshot build: serve.Build untraced, the traced
// split otherwise.
func build(g *graph.Graph, seed uint64, tr *Tracer) (*serve.Snapshot, error) {
	if tr == nil {
		return serve.Build(g, serve.BuildConfig{Seed: seed})
	}
	snap, _, err := splitBuild(g, seed, tr)
	return snap, err
}
