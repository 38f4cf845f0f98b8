package serve

// Personalized PageRank serving. The paper's Section 2.4 frames top-k
// PPR as the problem FrogWild solves with a one-line change to the
// restart distribution; internal/frogwild computes it offline. This
// file serves it interactively: /v1/ppr answers per-user queries with
// request-time truncated-geometric walks over the current snapshot's
// graph — no precomputation per source, so any of the n vertices can
// be a source — under a hard per-request walk budget.
//
// Determinism is the contract, like everywhere else in the repo: the
// walks for one (epoch, source) pair are drawn from a stream derived
// from (snapshot seed, epoch, source) and consumed sequentially, so a
// walk's randomness is a pure function of (epoch, source, sequence).
// Identical requests within one epoch are therefore bit-identical —
// regardless of executor worker count, batching, cache state, or how
// requests interleave.
//
// Three layers amortize the work under hot traffic:
//
//   - An LRU of final response bodies keyed by (epoch, sourceSet, k)
//     with size and TTL knobs: Zipf-skewed source popularity makes
//     repeated sources cheap.
//   - A singleflight per (epoch, sourceSet, k): concurrent identical
//     requests share one execution.
//   - A batching executor: concurrent requests enqueue per-source walk
//     tasks, and one drainer sweeps all pending tasks in a combined
//     multi-source pass across a worker pool, so CSR traversal is
//     amortized across requests and overlapping source sets share
//     per-source walk results.

import (
	"cmp"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pagerank"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// pprPurpose labels the rng stream domain for PPR walks, so they can
// never correlate with any other consumer of the snapshot seed.
const pprPurpose = uint64('P')<<8 | uint64('R')

// PPROptions tunes the /v1/ppr endpoint. The zero value serves with
// the defaults below; the endpoint is always on.
type PPROptions struct {
	// WalksPerSource is how many walks each source gets when the budget
	// allows (default 2000). More walks, tighter estimates.
	WalksPerSource int
	// WalkBudget is the hard per-request walk cap across all sources
	// (default 16384). A request whose sources × WalksPerSource exceed
	// it runs fewer walks per source and is flagged "truncated": true;
	// a request with more sources than the budget is rejected.
	WalkBudget int
	// MaxWalkLen truncates each geometric walk length (default 64).
	// With teleport 0.15 the probability of a longer walk is under
	// 3e-5, so truncation bias is far below sampling noise.
	MaxWalkLen int
	// MaxK bounds the k parameter (default 100).
	MaxK int
	// MaxSources bounds the source set size (default 16).
	MaxSources int
	// Teleport is the walk restart probability pT (default 0.15).
	Teleport float64
	// CacheSize is the hot-source LRU capacity in responses (default
	// 1024; negative disables caching).
	CacheSize int
	// CacheTTL expires cached responses by age (0 = size-bounded only).
	// Within one epoch a recomputed response is bit-identical to the
	// expired one, so a TTL trades only CPU, never consistency.
	CacheTTL time.Duration
	// Workers is the batch executor's worker pool size (0 =
	// GOMAXPROCS). Results are bit-identical for any worker count: each
	// per-source task consumes only its own derived stream.
	Workers int
}

// withDefaults resolves the zero values.
func (o PPROptions) withDefaults() PPROptions {
	if o.WalksPerSource <= 0 {
		o.WalksPerSource = 2000
	}
	if o.WalkBudget <= 0 {
		o.WalkBudget = 16384
	}
	if o.MaxWalkLen <= 0 {
		o.MaxWalkLen = 64
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.MaxSources <= 0 {
		o.MaxSources = 16
	}
	if o.Teleport <= 0 || o.Teleport > 1 {
		o.Teleport = pagerank.DefaultTeleport
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// pprEngine owns the /v1/ppr serving state: cache, flights, batcher
// and instruments. One per Server.
type pprEngine struct {
	opts PPROptions

	cache   *pprCache
	flights flightGroup[string, []byte]
	batcher *pprBatcher

	queries   obs.Counter
	cacheHits obs.Counter
	walks     obs.Counter
	truncated obs.Counter
	lat       *obs.Latency
}

// newPPREngine builds the engine and registers its instruments on reg.
func newPPREngine(opts PPROptions, reg *obs.Registry) *pprEngine {
	e := &pprEngine{opts: opts.withDefaults()}
	e.cache = newPPRCache(e.opts.CacheSize, e.opts.CacheTTL)
	e.batcher = &pprBatcher{tasks: make(map[pprTaskKey]*pprTask), workers: e.opts.Workers}
	reg.RegisterCounter("ppr_requests_total",
		"Personalized PageRank queries (method-allowed GETs on /v1/ppr).", nil, &e.queries)
	reg.RegisterCounter("ppr_cache_hits_total",
		"PPR queries answered from the hot-source LRU.", nil, &e.cacheHits)
	reg.RegisterCounter("ppr_walks_total",
		"Random walks executed for PPR queries (cache hits execute none).", nil, &e.walks)
	reg.RegisterCounter("ppr_truncated_total",
		"PPR responses truncated by the per-request walk budget.", nil, &e.truncated)
	reg.RegisterCounter("ppr_cache_evictions_total",
		"Responses evicted from the PPR LRU by capacity pressure.", nil, &e.cache.evictions)
	reg.RegisterCounter("ppr_batches_total",
		"Combined multi-source walk passes executed by the batcher.", nil, &e.batcher.batches)
	reg.RegisterCounter("ppr_walk_steps_total",
		"Individual walk steps executed on paged graphs (restarts included).", nil, &e.batcher.steps)
	reg.RegisterCounter("ppr_walk_page_local_steps_total",
		"Paged walk steps whose adjacency read hit the same cache page as the previous step.", nil, &e.batcher.local)
	e.lat = reg.Latency("ppr_request_seconds",
		"PPR request handling latency, cache hits included.", nil)
	return e
}

// --- hot-source LRU -------------------------------------------------

// pprCache is a size- and TTL-bounded LRU of marshaled response
// bodies. Keys carry the epoch, so a snapshot swap naturally misses
// and stale entries age out under capacity pressure.
type pprCache struct {
	mu        sync.Mutex
	max       int
	ttl       time.Duration
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions obs.Counter
}

type pprCacheEntry struct {
	key   string
	body  []byte
	added time.Time
}

func newPPRCache(max int, ttl time.Duration) *pprCache {
	return &pprCache{max: max, ttl: ttl, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached body and refreshes its recency; TTL-expired
// entries are removed and miss.
func (c *pprCache) Get(key string, now time.Time) ([]byte, bool) {
	if c.max < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*pprCacheEntry)
	if c.ttl > 0 && now.Sub(ent.added) > c.ttl {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.body, true
}

// Put inserts a body, evicting from the cold end past capacity.
func (c *pprCache) Put(key string, body []byte, now time.Time) {
	if c.max < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*pprCacheEntry).body = body
		el.Value.(*pprCacheEntry).added = now
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&pprCacheEntry{key: key, body: body, added: now})
	for c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*pprCacheEntry).key)
		c.evictions.Inc()
	}
}

// Len reports the current entry count (tests and eviction accounting).
func (c *pprCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// --- batching executor ----------------------------------------------

// pprTaskKey identifies one per-source walk job. Epoch is part of the
// key, so tasks over different snapshots never unify; walks is too, so
// a budget-truncated request cannot reuse a fuller run's tally (the
// response's walk count must be a pure function of the request).
type pprTaskKey struct {
	epoch  uint64
	source graph.VertexID
	walks  int
}

// pprTask is one scheduled per-source walk job: the snapshot to walk
// over and, once done is closed, the endpoint tally of its walks.
// counts maps vertex → visits; walks ≤ budget keeps it small relative
// to the graph, so the tally stays sparse (the NeedleTail-style
// density argument: a per-source top-k cut never needs a dense
// n-length vector).
type pprTask struct {
	key    pprTaskKey
	snap   *Snapshot
	done   chan struct{}
	counts map[graph.VertexID]int32
}

// pprBatcher collects concurrent per-source walk tasks and executes
// them in combined passes: the first request to find the executor idle
// becomes the drainer and sweeps everything pending (its own tasks and
// any that arrived meanwhile) across the worker pool, repeating until
// the queue is empty. Later requests just enqueue — joining an
// identical pending or running task instead of duplicating it — and
// wait, so under concurrency the CSR is traversed in wide multi-source
// passes rather than once per request.
type pprBatcher struct {
	mu      sync.Mutex
	tasks   map[pprTaskKey]*pprTask // pending or running, joinable
	pending []*pprTask
	running bool
	workers int
	batches obs.Counter
	steps   obs.Counter
	local   obs.Counter
}

// run schedules walk tasks for every key (joining identical in-flight
// ones), drives execution if no drainer is active, and blocks until
// all of this request's tasks are done. Returned tasks parallel keys.
func (b *pprBatcher) run(snap *Snapshot, opts PPROptions, keys []pprTaskKey) []*pprTask {
	mine := make([]*pprTask, len(keys))
	b.mu.Lock()
	for i, k := range keys {
		if t, ok := b.tasks[k]; ok {
			mine[i] = t
			continue
		}
		t := &pprTask{key: k, snap: snap, done: make(chan struct{})}
		b.tasks[k] = t
		b.pending = append(b.pending, t)
		mine[i] = t
	}
	drain := !b.running && len(b.pending) > 0
	if drain {
		b.running = true
	}
	b.mu.Unlock()
	if drain {
		b.drain(opts)
	}
	for _, t := range mine {
		<-t.done
	}
	return mine
}

// drain sweeps pending tasks in combined passes until none remain.
func (b *pprBatcher) drain(opts PPROptions) {
	for {
		b.mu.Lock()
		batch := b.pending
		b.pending = nil
		if len(batch) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.batches.Inc()

		// One multi-source pass: workers pull tasks from a shared
		// cursor. Each task consumes only its own derived stream, so
		// the tally is bit-identical for any worker count or order.
		workers := min(b.workers, len(batch))
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					var m pprWalkMetrics
					batch[i].counts, m = pprWalkSource(batch[i].snap, batch[i].key, opts)
					if m.steps > 0 {
						b.steps.Add(m.steps)
						b.local.Add(m.local)
					}
				}
			}()
		}
		wg.Wait()

		b.mu.Lock()
		for _, t := range batch {
			delete(b.tasks, t.key)
		}
		b.mu.Unlock()
		for _, t := range batch {
			close(t.done)
		}
	}
}

// pprWalkMetrics counts a task's walk steps and how many of them hit
// the same cache page as the step processed just before — the
// page-locality signal the batched scheduler exists to maximize. Only
// the paged executor fills it in; resident graphs have no pages to be
// local to.
type pprWalkMetrics struct {
	steps uint64
	local uint64
}

// pprWalkSource runs key.walks truncated-geometric walks from
// key.source over snap's graph and tallies walk endpoints — the
// endpoint of a geometric-length walk samples the personalized
// invariant distribution (the paper's Lemma 16 equivalence, restart
// distribution concentrated on the source). A walk stuck on a
// dangling vertex restarts at the source, matching ExactPPR's
// dangling-mass treatment. Walk w's randomness is its own stream
// derived from (snapshot seed, epoch, source, w), consumed in step
// order: every draw is a pure function of (epoch, source, walk,
// step), so the tally is bit-identical whether the walks run
// sequentially (here) or interleaved by the page-batched executor —
// paging and relabeling can never change a served body.
func pprWalkSource(snap *Snapshot, key pprTaskKey, opts PPROptions) (map[graph.VertexID]int32, pprWalkMetrics) {
	if snap.Graph.Paged() {
		return pprWalkSourcePaged(snap, key, opts)
	}
	g := snap.Graph
	counts := make(map[graph.VertexID]int32, min(key.walks, 1024))
	for w := 0; w < key.walks; w++ {
		stream := rng.Derive(snap.Seed, pprPurpose, key.epoch, uint64(key.source), uint64(w))
		steps := stream.Geometric(opts.Teleport)
		if steps > opts.MaxWalkLen {
			steps = opts.MaxWalkLen
		}
		cur := key.source
		for s := 0; s < steps; s++ {
			outs := g.OutNeighbors(cur)
			if len(outs) == 0 {
				cur = key.source
				continue
			}
			cur = outs[stream.Intn(len(outs))]
		}
		counts[cur]++
	}
	return counts, pprWalkMetrics{}
}

// pprWalkSourcePaged is pprWalkSource for paged graphs: all the
// task's walks advance in lockstep rounds, and within a round the
// pending steps are sorted by the cache page their next adjacency
// read will touch, so the pool serves near-sequential page sweeps
// instead of key.walks independent random accesses. Each walk draws
// from its own stream in step order — the same draws, in the same
// per-walk order, as the sequential executor — so the tally is
// bit-identical to the resident path's.
func pprWalkSourcePaged(snap *Snapshot, key pprTaskKey, opts PPROptions) (map[graph.VertexID]int32, pprWalkMetrics) {
	r := snap.Graph.NewAdjReader()
	defer r.Release()
	counts := make(map[graph.VertexID]int32, min(key.walks, 1024))

	type walker struct {
		stream rng.Stream
		cur    graph.VertexID
		left   int
	}
	active := make([]walker, 0, key.walks)
	for w := 0; w < key.walks; w++ {
		stream := rng.Derive(snap.Seed, pprPurpose, key.epoch, uint64(key.source), uint64(w))
		steps := stream.Geometric(opts.Teleport)
		if steps > opts.MaxWalkLen {
			steps = opts.MaxWalkLen
		}
		if steps == 0 {
			counts[key.source]++
			continue
		}
		active = append(active, walker{stream: *stream, cur: key.source, left: steps})
	}

	// pending is one walker's next step: wk indexes active, idx is the
	// pre-drawn neighbor index and page the cache page it reads.
	type pending struct {
		wk   int32
		idx  int32
		page int64
	}
	var m pprWalkMetrics
	batch := make([]pending, 0, len(active))
	lastPage := int64(-1)
	for len(active) > 0 {
		// Draw each walker's next neighbor index now (its own stream,
		// step order preserved), so the step's exact page is known
		// before any page is touched.
		batch = batch[:0]
		for i := range active {
			wk := &active[i]
			deg := r.OutDegree(wk.cur)
			if deg == 0 {
				wk.cur = key.source // dangling restart: a step, no read
				m.steps++
				continue
			}
			idx := wk.stream.Intn(deg)
			batch = append(batch, pending{wk: int32(i), idx: int32(idx), page: r.OutPageAt(wk.cur, idx)})
		}
		slices.SortFunc(batch, func(a, b pending) int { return cmp.Compare(a.page, b.page) })
		for _, p := range batch {
			m.steps++
			if p.page == lastPage {
				m.local++
			} else {
				lastPage = p.page
			}
			wk := &active[p.wk]
			wk.cur = r.OutAt(wk.cur, int(p.idx))
		}
		retained := active[:0]
		for _, wk := range active {
			wk.left--
			if wk.left > 0 {
				retained = append(retained, wk)
			} else {
				counts[wk.cur]++
			}
		}
		active = retained
	}
	return counts, m
}

// --- request handling -----------------------------------------------

// pprKey renders the canonical cache/flight key for a request.
func pprKey(epoch uint64, sources []graph.VertexID, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d:", epoch, k)
	for i, s := range sources {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(s), 10))
	}
	return b.String()
}

// parsePPRSources parses the source/sources parameters into a
// canonical (sorted, deduplicated) source set. Validation errors carry
// the status and code the error envelope table pins.
func (s *Server) parsePPRSources(r *http.Request, n int, opts PPROptions) ([]graph.VertexID, int, string, error) {
	q := r.URL.Query()
	raw := q.Get("sources")
	if raw == "" {
		raw = q.Get("source")
	}
	if !q.Has("sources") && !q.Has("source") {
		return nil, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("missing source parameter (source=u or sources=a,b,c)")
	}
	parts := strings.Split(raw, ",")
	sources := make([]graph.VertexID, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("bad source %q: %v", p, err)
		}
		if int(v) >= n {
			return nil, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("source %d not in graph (n=%d)", v, n)
		}
		sources = append(sources, graph.VertexID(v))
	}
	if len(sources) == 0 {
		return nil, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("empty source set")
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	sources = dedupeSorted(sources)
	if len(sources) > opts.MaxSources {
		return nil, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("%d sources exceed the limit of %d", len(sources), opts.MaxSources)
	}
	if opts.WalkBudget/len(sources) == 0 {
		return nil, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("walk budget %d cannot cover %d sources", opts.WalkBudget, len(sources))
	}
	return sources, 0, "", nil
}

// dedupeSorted removes adjacent duplicates in place.
func dedupeSorted(xs []graph.VertexID) []graph.VertexID {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// handlePPR answers GET /v1/ppr?source=u&k= (or sources=a,b,c): the
// top-k personalized PageRank of the source set, estimated by
// request-time walks under the configured budget.
func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.ppr.lat.Observe(time.Since(start)) }()
	s.ppr.queries.Inc()
	snap := s.current(w)
	if snap == nil {
		return
	}
	opts := s.ppr.opts
	k, err := parsePositiveInt(r.URL.Query().Get("k"), 20)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad k: %v", err)
		return
	}
	if k > opts.MaxK {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "k %d exceeds the limit of %d", k, opts.MaxK)
		return
	}
	sources, status, code, err := s.parsePPRSources(r, snap.Graph.NumVertices(), opts)
	if err != nil {
		s.fail(w, status, code, "%v", err)
		return
	}

	key := pprKey(snap.Epoch, sources, k)
	if body, ok := s.ppr.cache.Get(key, start); ok {
		s.ppr.cacheHits.Inc()
		s.reply(w, body)
		return
	}
	body, err, shared := s.ppr.flights.Do(key, func() ([]byte, error) {
		body, err := s.pprCompute(snap, sources, k)
		if err == nil {
			s.ppr.cache.Put(key, body, time.Now())
		}
		return body, err
	})
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	s.reply(w, body)
}

// pprCut converts a merged endpoint tally into the top-k entries, in
// the topk package's total order (score descending, vertex ascending
// on ties) so the result is deterministic and consistent with /v1/topk
// semantics.
func pprCut(merged map[graph.VertexID]int32, totalWalks, k int) []topk.Entry {
	entries := make([]topk.Entry, 0, len(merged))
	inv := 1 / float64(totalWalks)
	for v, c := range merged {
		entries = append(entries, topk.Entry{Vertex: v, Score: float64(c) * inv})
	}
	sort.Slice(entries, func(i, j int) bool { return topk.Less(entries[j], entries[i]) })
	if k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

// PPRTopK estimates the top-k personalized PageRank of the source set
// over snap with the same bounded-budget walk estimator /v1/ppr
// serves — the embedding hook (repro.PersonalizedTopK) for callers
// that hold a snapshot and want answers without HTTP. Sources are
// canonicalized (sorted, deduplicated); the boolean reports budget
// truncation. The entries are bit-identical to the served response's
// for the same snapshot, sources, k and options.
func PPRTopK(snap *Snapshot, sources []graph.VertexID, k int, opts PPROptions) ([]topk.Entry, bool, error) {
	opts = opts.withDefaults()
	srcs := append([]graph.VertexID(nil), sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	srcs = dedupeSorted(srcs)
	n := snap.Graph.NumVertices()
	switch {
	case len(srcs) == 0:
		return nil, false, fmt.Errorf("serve: ppr needs at least one source")
	case len(srcs) > opts.MaxSources:
		return nil, false, fmt.Errorf("serve: %d sources exceed the limit of %d", len(srcs), opts.MaxSources)
	case opts.WalkBudget/len(srcs) == 0:
		return nil, false, fmt.Errorf("serve: walk budget %d cannot cover %d sources", opts.WalkBudget, len(srcs))
	case k <= 0:
		return nil, false, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	for _, s := range srcs {
		if int(s) >= n {
			return nil, false, fmt.Errorf("serve: source %d not in graph (n=%d)", s, n)
		}
	}
	walksPer := opts.WalksPerSource
	truncated := false
	if walksPer*len(srcs) > opts.WalkBudget {
		walksPer = opts.WalkBudget / len(srcs)
		truncated = true
	}
	merged := make(map[graph.VertexID]int32, len(srcs)*8)
	for _, src := range srcs {
		counts, _ := pprWalkSource(snap, pprTaskKey{epoch: snap.Epoch, source: src, walks: walksPer}, opts)
		for v, c := range counts {
			merged[v] += c
		}
	}
	return pprCut(merged, walksPer*len(srcs), k), truncated, nil
}

// pprCompute runs the walks through the batcher and marshals the
// response body. Bit-identical for identical (snapshot, sources, k).
func (s *Server) pprCompute(snap *Snapshot, sources []graph.VertexID, k int) ([]byte, error) {
	opts := s.ppr.opts
	walksPer := opts.WalksPerSource
	truncated := false
	if walksPer*len(sources) > opts.WalkBudget {
		walksPer = opts.WalkBudget / len(sources)
		truncated = true
		s.ppr.truncated.Inc()
	}
	keys := make([]pprTaskKey, len(sources))
	for i, src := range sources {
		keys[i] = pprTaskKey{epoch: snap.Epoch, source: src, walks: walksPer}
	}
	tasks := s.ppr.batcher.run(snap, opts, keys)
	s.ppr.walks.Add(uint64(walksPer * len(sources)))

	// Merge the per-source endpoint tallies; the source set's PPR is
	// the uniform mixture of the per-source PPR vectors, and every
	// source ran the same walk count.
	merged := make(map[graph.VertexID]int32, len(tasks)*8)
	for _, t := range tasks {
		for v, c := range t.counts {
			merged[v] += c
		}
	}
	totalWalks := walksPer * len(sources)
	entries := pprCut(merged, totalWalks, k)

	rows := make([]api.TopKEntry, len(entries))
	for i, e := range entries {
		rows[i] = api.TopKEntry{Vertex: e.Vertex, Score: e.Score}
	}
	srcIDs := make([]uint32, len(sources))
	copy(srcIDs, sources)
	body, err := json.Marshal(api.PPRResponse{
		Epoch:     snap.Epoch,
		Engine:    snap.Engine,
		Seed:      snap.Seed,
		Sources:   srcIDs,
		K:         len(rows),
		Walks:     totalWalks,
		Truncated: truncated,
		Entries:   rows,
	})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
