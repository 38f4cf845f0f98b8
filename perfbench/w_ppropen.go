package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/topk"
)

// The ppr-open rate ladder (queries/s), the rate latencies are
// reported at, and the PPR tail limit a step must meet.
var ladder = []float64{4000, 6000, 8000, 10000, 12000}

const (
	reportRung = 1 // 6k q/s
	pprLimitMS = 25.0
	// rungWindows splits the reported rung for the gated latency.
	rungWindows = 5
)

// pprService is one ppr-open set-up: the generated graph behind a
// serve.NewService stack, answering.
type pprService struct {
	g   *graph.Graph
	srv *serve.Server
	ref *serve.Refresher
}

func setupPPRService(r *Run, interval time.Duration) (*pprService, error) {
	g, err := servingGraph(r.Tr)
	if err != nil {
		return nil, err
	}
	sp := r.Tr.Begin("serve.NewService", 0, "")
	srv, ref, err := serve.NewService(g, serve.ServiceConfig{
		Build:           serve.BuildConfig{Seed: r.Seed},
		RefreshInterval: interval,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return &pprService{g: g, srv: srv, ref: ref}, firstAnswer(srv)
}

// runPPROpen offers the PPR-weighted mix open-loop at each ladder rate
// while the Refresher republishes on a cadence, so every epoch-keyed
// cache keeps starting cold and refresh CPU competes with walks.
func runPPROpen(ctx context.Context, r *Run) error {
	// The Refresher republishes once per rung: its cadence is the rung
	// length, and it starts half a rung before the ladder, so every
	// rung sees exactly one epoch swap, in its middle.
	stepDur := r.Dur() / time.Duration(len(ladder))
	var svc *pprService
	var setups []float64
	for rep := 0; rep < r.Reps; rep++ {
		svc = nil
		settle()
		start := time.Now()
		var err error
		if svc, err = setupPPRService(r, stepDur); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(start)))
	}
	ref, err := r.Cache.ServingRef(svc.g)
	if err != nil {
		return err
	}

	settle()
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = svc.ref.Run(runCtx, nil) // returns ctx.Err() once stopped; build errors are counted below
	}()
	// Half a rung of unrecorded traffic at the first rate aligns the
	// refresh ticks with the rungs' middles and warms the caches.
	gen := NewOpGen(r.Seed, 0, pprMix, servingN)
	OpenStep(ctx, ladder[0], stepDur/2, gen, NewClient(svc.srv, nil, &r.Fails))

	sampler := &Sampler{current: svc.srv.Snapshot}
	health := NewHealth()
	regBefore, hBefore := scrape(svc.srv.Metrics()), health.Read()
	swapsBefore, errsBefore := svc.ref.Refreshes(), svc.ref.Errors()
	start := time.Now()
	watch := StartWatch(stepDur, len(ladder))
	var steps []ladderStep
	var top StepResult
	var at *Client
	var atStep StepResult
	var ops int64
	topkOps := 0
	for i, rate := range ladder {
		c := NewClient(svc.srv, r.Tr, &r.Fails)
		c.Sample = sampler.Sample
		c.SetWindows(time.Now(), stepDur/rungWindows, rungWindows)
		_, failedBefore, _ := r.Fails.Totals()
		st := OpenStep(ctx, rate, stepDur, gen, c)
		_, failedAfter, _ := r.Fails.Totals()
		st.Failed = failedAfter - failedBefore
		ops += int64(st.Ops)
		topkOps += c.lat[epTopK].Len()
		step := ladderStep{rate: rate, tail: c.lat[epPPR].Tail(), backlog: st.Backlog, failed: st.Failed}
		steps = append(steps, step)
		r.Infof("step %5.0f q/s: %d ops, ppr %s = %.2f ms, backlog %d, failed %d, lag p50 %.3f ms -> pass %v",
			rate, st.Ops, step.tail.Label(), step.tail.Value, st.Backlog, st.Failed, P50Of(st.Lag).Value, step.pass())
		if i == reportRung {
			at, atStep = c, st
		}
		top = st
	}
	maxRate, lastPass := maxSustained(steps)
	wall := time.Since(start)
	stop()
	wg.Wait()
	watch.Stop()
	regAfter, hAfter := scrape(svc.srv.Metrics()), health.Read()
	swaps := svc.ref.Refreshes() - swapsBefore
	r.Fails.Check(svc.ref.Errors() == errsBefore, "background refresh build failed")

	kept := sampler.Kept()
	pc := checkAgainstSnapshots(kept, serve.PPROptions{}, &r.Fails, r.Tr)
	r.Infof("output checks: %d sampled bodies checked against Snapshot.TopK/Rank and serve.PPRTopK, %d from an unheld epoch", pc.checked, pc.unknown)

	var masses, builds []float64
	seen := map[uint64]bool{}
	for _, k := range kept {
		if k.snap != nil && !seen[k.snap.Epoch] {
			seen[k.snap.Epoch] = true
			masses = append(masses, massOf(ref, k.snap))
			if k.snap.BuildSeconds > 0 {
				builds = append(builds, k.snap.BuildSeconds)
			}
		}
	}
	r.Named.Set(Metric{Name: "setup_s", Value: Median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))})
	r.Named.Set(Metric{Name: "max_rate_qps", Value: maxRate, Unit: "q/s",
		Note: fmt.Sprintf("highest passing rung %.0f, interpolated on the ppr tail toward the rung above", lastPass)})
	latencyMetrics(r, at, epPPR, epTopK, epRank)
	r.Named.Put("peak_rss_mb", PeakRSSMiB(), "MiB")
	r.Named.Set(Metric{Name: "mass_k100", Value: Median(masses), Unit: "ratio", Note: fmt.Sprintf("median over %d served epochs", len(masses))})
	r.Infof("latencies at %.0f q/s, timed from each op's scheduled send; %d epoch swaps during the ladder (one per rung); goodput at %.0f q/s offered: %.1f q/s",
		ladder[reportRung], swaps, ladder[len(ladder)-1], top.Goodput)

	r.Gate.Put("setup_s", Median(setups), "s")
	r.Gate.Put("latency_p50_ms", at.lat[epPPR].FastWindowP50(rungWindows), "ms")
	r.Gate.Put("throughput_per_s", top.Goodput, "1/s")
	r.Gate.Put("mass_k100", Median(masses), "ratio")
	r.Gate.Put("rss_mb", watch.WindowPeakRSS(), "MiB")

	if r.Tr == nil {
		return nil
	}
	servingLayers(r, regBefore, regAfter, wall, pc, topkOps)
	r.Layer.Put("serve.epoch_swaps", float64(swaps), "count")
	r.Layer.Put("serve.refresh_build_s", Median(builds), "s")
	allocs, bytes := pprAllocs(svc.srv.Snapshot(), pprOps(kept), serve.PPROptions{})
	r.Layer.Put("ppr.allocs_per_query", allocs, "count")
	r.Layer.Put("ppr.alloc_bytes_per_query", bytes, "B")
	runtimeLayers(r, hBefore, hAfter, ops, watch.Goroutines())
	r.Layer.PutQ("loadgen.lag_p50_ms", P50Of(atStep.Lag))
	r.Layer.PutQ("loadgen.lag_p99_ms", TailOf(atStep.Lag))
	r.Layer.Put("gen.powerlaw_s", ByName(r.Tr.Spans())["gen.PowerLaw"].MedianMS()/1000, "s")
	return nil
}

// ladderStep is one rung's verdict inputs.
type ladderStep struct {
	rate    float64
	tail    Quantile
	backlog int64
	failed  int64
}

// pass: PPR tail within the limit, no failures, and no more ops
// outstanding at the step's end than arrive within one latency limit.
func (s ladderStep) pass() bool {
	return s.failed == 0 && s.tail.Value <= pprLimitMS && float64(s.backlog) <= s.rate*pprLimitMS/1000
}

// maxSustained returns the highest rate the ladder sustained and the
// highest rung that passed. A rung below it may have failed (a refresh
// build and a disturbed moment can coincide at any rate); the figure
// is the highest rate that met the limits. When the rung above the
// highest passing one failed on the tail alone, the rate is
// interpolated linearly on the tail between the two, so the figure
// moves smoothly instead of a whole rung at a time.
func maxSustained(steps []ladderStep) (rate, lastPass float64) {
	best := -1
	for i, s := range steps {
		if s.pass() {
			best = i
		}
	}
	if best < 0 {
		return 0, 0
	}
	prev := steps[best]
	if best+1 < len(steps) {
		s := steps[best+1]
		tailOnly := s.failed == 0 && float64(s.backlog) <= s.rate*pprLimitMS/1000
		if tailOnly && s.tail.Value > prev.tail.Value {
			frac := (pprLimitMS - prev.tail.Value) / (s.tail.Value - prev.tail.Value)
			return prev.rate + frac*(s.rate-prev.rate), prev.rate
		}
	}
	return prev.rate, prev.rate
}

// massOf is a snapshot's normalized captured top-100 mass against the
// exact reference.
func massOf(ref []float64, snap *serve.Snapshot) float64 {
	return topk.NormalizedCapturedMass(ref, snap.Ranks, massK)
}

// pprOps lists the ops of kept /v1/ppr samples.
func pprOps(kept []sampled) []Op {
	var out []Op
	for _, k := range kept {
		if k.Op.EP == epPPR {
			out = append(out, k.Op)
		}
	}
	return out
}
