package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint names, in report order.
const (
	epTopK  = "topk"
	epRank  = "rank"
	epPPR   = "ppr"
	epStats = "stats"
)

var endpoints = []string{epTopK, epRank, epPPR, epStats}

// Mix weights the endpoints (relative weights).
type Mix struct{ TopK, Rank, PPR, Stats float64 }

// The two mixes the workloads use: the PPR-weighted serving mix, and
// the read mix the sharded router can answer (it has no /v1/ppr).
var (
	pprMix  = Mix{TopK: 0.45, Rank: 0.25, PPR: 0.2, Stats: 0.1}
	readMix = Mix{TopK: 0.6, Rank: 0.3, Stats: 0.1}
)

// zipfS is the key-popularity skew for k, rank vertices and ppr sources.
const zipfS = 1.1

// maxK bounds topk/ppr k (the served index size).
const maxK = 100

// Op is one query.
type Op struct {
	EP string
	K  int
	V  uint32
}

// URL renders the op's request path.
func (op Op) URL() string {
	switch op.EP {
	case epTopK:
		return "/v1/topk?k=" + strconv.Itoa(op.K)
	case epRank:
		return "/v1/rank?vertex=" + strconv.FormatUint(uint64(op.V), 10)
	case epPPR:
		return fmt.Sprintf("/v1/ppr?source=%d&k=%d", op.V, op.K)
	default:
		return "/v1/stats"
	}
}

// OpGen draws ops from a mix with Zipf-skewed keys. Not safe for
// concurrent use; give each client its own.
type OpGen struct {
	r     *rand.Rand
	mix   Mix
	total float64
	zk    *rand.Zipf
	zv    *rand.Zipf
}

// NewOpGen seeds a generator for stream id of a workload seed over n
// vertices.
func NewOpGen(seed, stream uint64, mix Mix, n int) *OpGen {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
	return &OpGen{
		r: r, mix: mix,
		total: mix.TopK + mix.Rank + mix.PPR + mix.Stats,
		zk:    rand.NewZipf(r, zipfS, 1, maxK-1),
		zv:    rand.NewZipf(r, zipfS, 1, uint64(n-1)),
	}
}

// Next draws one op.
func (g *OpGen) Next() Op {
	x := g.r.Float64() * g.total
	switch {
	case x < g.mix.TopK:
		return Op{EP: epTopK, K: 1 + int(g.zk.Uint64())}
	case x < g.mix.TopK+g.mix.Rank:
		return Op{EP: epRank, V: uint32(g.zv.Uint64())}
	case x < g.mix.TopK+g.mix.Rank+g.mix.PPR:
		return Op{EP: epPPR, V: uint32(g.zv.Uint64()), K: 1 + int(g.zk.Uint64())}
	default:
		return Op{EP: epStats}
	}
}

// Gap draws an exponential inter-arrival gap for a Poisson process at
// rate per second.
func (g *OpGen) Gap(rate float64) time.Duration {
	return time.Duration(g.r.ExpFloat64() / rate * float64(time.Second))
}

// Served is the outcome of one in-process request.
type Served struct {
	Op      Op
	Status  int
	Body    []byte
	Latency time.Duration
	Req     string
}

// Client drives an http.Handler in-process: no sockets, the full
// handler path. It records latency per endpoint, counts failures, and
// hands sampled successful responses to the output checker.
type Client struct {
	h     http.Handler
	tr    *Tracer
	fails *Failures
	lat   map[string]*Samples
	reqs  atomic.Uint64
	// t0 and win split the run into measurement windows (see
	// SetWindows); without them every sample lands in window 0.
	t0  time.Time
	win time.Duration
	n   int
	// Sample, when set, sees every successful response; it must be
	// cheap (it runs on the request path) and safe for concurrent use.
	Sample func(Served)
}

// NewClient wraps h.
func NewClient(h http.Handler, tr *Tracer, fails *Failures) *Client {
	c := &Client{h: h, tr: tr, fails: fails, lat: map[string]*Samples{}}
	for _, ep := range endpoints {
		c.lat[ep] = &Samples{}
	}
	return c
}

// SetWindows splits the measurement starting at t0 into n windows of
// win each; latencies and completions are tagged with their window so
// figures can be read per window.
func (c *Client) SetWindows(t0 time.Time, win time.Duration, n int) {
	c.t0, c.win, c.n = t0, win, n
}

// window is the index of the window now falls in.
func (c *Client) window() int {
	if c.win <= 0 {
		return 0
	}
	return int(time.Since(c.t0) / c.win)
}

// FastWindowRate is the fast-quartile (see fastRate) of the windows'
// successful completions per second.
func (c *Client) FastWindowRate() float64 { return QuantileOf(c.WindowRates(), fastRate) }

// WindowRates is successful completions per second in each window.
func (c *Client) WindowRates() []float64 {
	counts := make([]float64, c.n)
	for _, ep := range endpoints {
		for i, w := range c.lat[ep].Windows(c.n) {
			counts[i] += float64(len(w))
		}
	}
	for i := range counts {
		counts[i] /= c.win.Seconds()
	}
	return counts
}

// Do serves op and times it from due (the scheduled send time; pass
// time.Now() in a closed loop).
func (c *Client) Do(op Op, due time.Time) Served {
	req := httptest.NewRequest(http.MethodGet, op.URL(), nil)
	rid := ""
	if c.tr != nil {
		rid = "pb-" + strconv.FormatUint(c.reqs.Add(1), 36)
		req.Header.Set("X-Request-Id", rid)
	}
	w := &recorder{status: http.StatusOK}
	sp := c.tr.BeginRequest("handler."+op.EP, rid)
	c.h.ServeHTTP(w, req)
	sp.End()
	s := Served{Op: op, Status: w.status, Body: w.body.Bytes(), Latency: time.Since(due), Req: rid}
	if c.fails.Op(s.Status, nil) {
		c.lat[op.EP].Add(s.Latency, c.window())
		if c.Sample != nil {
			c.Sample(s)
		}
	}
	return s
}

// recorder is a minimal in-memory ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	wrote  bool
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}

// ClosedLoop runs clients callers back to back for dur, each drawing
// from its own generator, and returns the number of completed ops.
func ClosedLoop(ctx context.Context, clients int, dur time.Duration, gen func(i int) *OpGen, c *Client) int64 {
	var done atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		g := gen(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				c.Do(g.Next(), time.Now())
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return done.Load()
}

// StepResult is one open-loop rate step.
type StepResult struct {
	Ops     int
	Backlog int64     // ops due by the step's end but not yet answered then
	Failed  int64     // set by the caller
	Lag     []float64 // dispatch lateness per op, ms, sorted
	// Goodput is ops answered per second, from the step's start until
	// its last answer: the offered rate while the server keeps up, its
	// capacity once it cannot.
	Goodput float64
}

// OpenStep offers ops at rate (Poisson arrivals) for dur from one
// dispatcher goroutine, each request in its own goroutine, and waits
// for them all. Each op is timed from its scheduled send time, so a
// dispatcher or server stall shows up in the latency of every op it
// delays; the dispatcher's own lateness is returned as Lag.
func OpenStep(ctx context.Context, rate float64, dur time.Duration, g *OpGen, c *Client) StepResult {
	var res StepResult
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var offset time.Duration
	lags := make([]float64, 0, int(rate*dur.Seconds())+16)
	for ctx.Err() == nil {
		offset += g.Gap(rate)
		if offset >= dur {
			break
		}
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, float64(time.Since(due).Nanoseconds())/1e6)
		op := g.Next()
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(op, due)
			inflight.Add(-1)
		}()
		res.Ops++
	}
	// Ops due before the step ended but not yet answered.
	if wait := time.Until(start.Add(dur)); wait > 0 {
		time.Sleep(wait)
	}
	res.Backlog = inflight.Load()
	wg.Wait()
	res.Goodput = float64(res.Ops) / time.Since(start).Seconds()
	sort.Float64s(lags)
	res.Lag = lags
	return res
}
