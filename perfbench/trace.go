package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from this benchmark's
// own files around the program's public entry points. Times are
// nanoseconds since the tracer started. Parent is 0 for a root span;
// spans of one served request share Req.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: every method is a no-op that returns zero values,
// so call sites need no branches.
type Tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
	roots sync.Map // request id -> root span id
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	req    string
	start  int64
}

// Begin starts a span.
func (t *Tracer) Begin(name string, parent uint64, req string) Open {
	if t == nil {
		return Open{}
	}
	return Open{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: int64(time.Since(t.t0))}
}

// BeginRequest starts a served request's root span and remembers it
// under the request id, so spans recorded further down the stack
// (shard RPCs) can find their parent.
func (t *Tracer) BeginRequest(name, req string) Open {
	o := t.Begin(name, 0, req)
	if t != nil && req != "" {
		t.roots.Store(req, o.id)
	}
	return o
}

// Root returns the root span id recorded for a request id (0 if none).
func (t *Tracer) Root(req string) uint64 {
	if t == nil || req == "" {
		return 0
	}
	if v, ok := t.roots.Load(req); ok {
		return v.(uint64)
	}
	return 0
}

// ID is the span's id (0 when untraced), for use as a child's parent.
func (o Open) ID() uint64 { return o.id }

// End finishes and records the span.
func (o Open) End() {
	if o.t == nil {
		return
	}
	end := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, Span{ID: o.id, Parent: o.parent, Name: o.name, Req: o.req, Start: o.start, End: end})
	o.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write dumps the spans as JSON lines to path.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once, and child time outside the parent's interval is ignored).
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// SpanStats summarises spans by name: count, total and median
// duration, and total self time.
type SpanStats struct {
	Count     int
	Total     time.Duration
	Self      time.Duration
	Durations []float64 // ms, sorted
}

// ByName groups spans by name.
func ByName(spans []Span) map[string]*SpanStats {
	self := SelfTimes(spans)
	out := map[string]*SpanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur()
		st.Self += self[s.ID]
		st.Durations = append(st.Durations, float64(s.Dur().Nanoseconds())/1e6)
	}
	for _, st := range out {
		sort.Float64s(st.Durations)
	}
	return out
}

// MedianMS is the median span duration in ms (0 without spans).
func (st *SpanStats) MedianMS() float64 {
	if st == nil || len(st.Durations) == 0 {
		return 0
	}
	return Percentile(st.Durations, 50)
}

// String renders a one-line summary.
func (st *SpanStats) String() string {
	return fmt.Sprintf("n=%d total=%.3fs self=%.3fs p50=%.3fms", st.Count, st.Total.Seconds(), st.Self.Seconds(), st.MedianMS())
}
