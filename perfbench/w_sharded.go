package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/serve"
)

// shards is the sharded workload's cluster size.
const shards = 4

// shardCluster is one sharded set-up: shard servers on loopback TCP and the
// router in front of them.
type shardCluster struct {
	g       *graph.Graph
	snap    *serve.Snapshot
	rt      *router.Router
	clients []*router.ShardClient
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// Close stops the shards and waits for their serve loops to return.
func (c *shardCluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.stop()
	c.wg.Wait()
}

func setupShards(ctx context.Context, r *Run) (*shardCluster, error) {
	g, err := servingGraph(r.Tr)
	if err != nil {
		return nil, err
	}
	sp := r.Tr.Begin("serve.Build", 0, "")
	snap, err := serve.Build(g, serve.BuildConfig{Seed: servingSeed})
	sp.End()
	if err != nil {
		return nil, err
	}
	sctx, stop := context.WithCancel(ctx)
	c := &shardCluster{g: g, snap: snap, stop: stop}
	for id := 0; id < shards; id++ {
		sp := r.Tr.Begin("router.OwnedVertices", 0, "")
		owned, err := router.OwnedVertices(g, shards, id, servingSeed)
		sp.End()
		if err != nil {
			c.Close()
			return nil, err
		}
		store := serve.NewStore()
		store.Publish(snap)
		srv := router.NewShardServer(id, shards, owned, store)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = srv.Serve(sctx, ln) // returns nil once sctx is cancelled
		}()
		addr := ln.Addr().String()
		c.clients = append(c.clients, router.NewShardClient(id, addr, tracedDial(router.DialTCP(addr), r.Tr), 0))
	}
	c.rt = router.New(c.clients, router.Options{})
	if err := firstAnswer(c.rt); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// runSharded drives the read mix closed-loop through the router over
// four TCP shards; no refresh, so every query reads one stable epoch.
// The snapshot and the vertex partition are part of the fixed input
// (graph seed); the workload seed picks the query streams.
func runSharded(ctx context.Context, r *Run) error {
	var c *shardCluster
	var setups []float64
	for rep := 0; rep < r.Reps; rep++ {
		if c != nil {
			c.Close()
		}
		settle()
		start := time.Now()
		var err error
		if c, err = setupShards(ctx, r); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(start)))
	}
	defer c.Close()
	ref, err := r.Cache.ServingRef(c.g)
	if err != nil {
		return err
	}

	sampler := &Sampler{}
	cl := NewClient(c.rt, r.Tr, &r.Fails)
	cl.Sample = sampler.Sample
	health := NewHealth()
	settle()
	hBefore := health.Read()
	netBefore := c.rt.NetworkStats()
	qBefore, degBefore, fbBefore, retBefore := c.rt.Queries(), c.rt.Degraded(), c.rt.EpochFallbacks(), c.rt.Retries()
	start := time.Now()
	win := r.Dur() / measureWindows
	cl.SetWindows(start, win, measureWindows)
	watch := StartWatch(win, measureWindows)
	ops := ClosedLoop(ctx, clients(), r.Dur(), func(i int) *OpGen { return NewOpGen(r.Seed, uint64(i), readMix, servingN) }, cl)
	watch.Stop()
	wall := time.Since(start)
	hAfter := health.Read()
	netAfter := c.rt.NetworkStats()
	queries := float64(c.rt.Queries() - qBefore)

	// Output check: a single-node server over the same snapshot must
	// answer the sampled top-k and rank requests with the same bytes.
	store := serve.NewStore()
	store.Publish(c.snap)
	single := serve.NewServer(store, serve.ServerOptions{})
	checked := checkReplay(sampler.Kept(), single, "single-node server on the same snapshot", &r.Fails)
	r.Infof("output checks: %d sampled router bodies replayed byte-for-byte on a single-node server", checked)

	qps := float64(ops) / wall.Seconds()
	r.Named.Set(Metric{Name: "setup_s", Value: Median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))})
	r.Named.Put("qps", qps, "q/s")
	latencyMetrics(r, cl, epTopK, epRank)
	r.Named.Put("peak_rss_mb", PeakRSSMiB(), "MiB")
	r.Named.Put("mass_k100", massOf(ref, c.snap), "ratio")

	r.Gate.Put("setup_s", Median(setups), "s")
	r.Gate.Put("latency_p50_ms", cl.lat[epTopK].FastWindowP50(measureWindows), "ms")
	r.Gate.Put("throughput_per_s", cl.FastWindowRate(), "1/s")
	r.Gate.Put("mass_k100", massOf(ref, c.snap), "ratio")
	r.Gate.Put("rss_mb", watch.WindowPeakRSS(), "MiB")

	if r.Tr == nil {
		return nil
	}
	wire := float64(netAfter.BytesSent+netAfter.BytesRecv-netBefore.BytesSent-netBefore.BytesRecv) / queries
	r.Layer.Put("router.wire_bytes_per_query", wire, "B")
	r.Layer.Set(Metric{Name: "router.cache_hit_rate", Value: ratio(float64(c.rt.Degraded()-degBefore), queries), Unit: "ratio",
		Note: "answers from the router's last-good cache"})
	r.Layer.Put("router.retries", float64(c.rt.Retries()-retBefore), "count")
	r.Layer.Put("router.degraded", float64(c.rt.Degraded()-degBefore), "count")
	r.Layer.Put("router.epoch_fallbacks", float64(c.rt.EpochFallbacks()-fbBefore), "count")
	rpc, merge := rpcSplit(r.Tr.Spans())
	r.Layer.PutQ("router.rpc_p50_ms", P50Of(rpc))
	r.Layer.PutQ("router.rpc_p99_ms", TailOf(rpc))
	r.Layer.PutQ("router.merge_ms", P50Of(merge))
	r.Layer.Put("gen.powerlaw_s", ByName(r.Tr.Spans())["gen.PowerLaw"].MedianMS()/1000, "s")
	runtimeLayers(r, hBefore, hAfter, ops, watch.Goroutines())
	return nil
}

// rpcSplit returns the sorted shard RPC durations and, per routed
// request, the router time outside its slowest RPC (fan-out, merge and
// encode), both in ms.
func rpcSplit(spans []Span) (rpc, merge []float64) {
	slowest := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 && bytes.HasPrefix([]byte(s.Name), []byte("router.ShardClient.")) {
			rpc = append(rpc, float64(s.Dur().Nanoseconds())/1e6)
			slowest[s.Parent] = max(slowest[s.Parent], s.Dur())
		}
	}
	for _, s := range spans {
		if d, ok := slowest[s.ID]; ok {
			merge = append(merge, float64((s.Dur()-d).Nanoseconds())/1e6)
		}
	}
	sort.Float64s(rpc)
	sort.Float64s(merge)
	return rpc, merge
}

// tracedDial wraps a shard dialer so each RPC on the connection gets a
// span: from the request frame's write until the client clears the
// connection deadline after reading the reply (the ShardClient's
// round trip), parented to the routed request's handler span through
// the request id the router forwards in the frame.
func tracedDial(dial router.DialFunc, tr *Tracer) router.DialFunc {
	if tr == nil {
		return dial
	}
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: conn, tr: tr}, nil
	}
}

type tracedConn struct {
	net.Conn
	tr   *Tracer
	open *Open
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.open == nil {
		rid, op := frameField(p, "rid"), frameField(p, "op")
		sp := c.tr.Begin("router.ShardClient."+op, c.tr.Root(rid), rid)
		c.open = &sp
	}
	return c.Conn.Write(p)
}

func (c *tracedConn) SetDeadline(t time.Time) error {
	if t.IsZero() && c.open != nil {
		c.open.End()
		c.open = nil
	}
	return c.Conn.SetDeadline(t)
}

func (c *tracedConn) Close() error {
	if c.open != nil {
		c.open.End()
		c.open = nil
	}
	return c.Conn.Close()
}

// frameField extracts a string field from a JSON request frame.
func frameField(p []byte, key string) string {
	pat := []byte(`"` + key + `":"`)
	i := bytes.Index(p, pat)
	if i < 0 {
		return ""
	}
	rest := p[i+len(pat):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
