package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procStatusKB reads one "Vm*" field of /proc/self/status in KiB
// (0 when unavailable).
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb
		}
	}
	return 0
}

// PeakRSSMiB is the process's high-water resident set (VmHWM).
func PeakRSSMiB() float64 { return procStatusKB("VmHWM") / 1024 }

// runtime/metrics names read by Health.
const (
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
)

// Health reads process-health counters from runtime/metrics.
type Health struct {
	samples []metrics.Sample
}

// NewHealth prepares the runtime/metrics samples.
func NewHealth() *Health {
	names := []string{mHeapAllocs, mGoroutines, mGCPauses}
	h := &Health{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		h.samples[i].Name = n
	}
	return h
}

// HealthPoint is one reading.
type HealthPoint struct {
	HeapAllocBytes float64
	Goroutines     float64
	GCPauseSeconds float64 // approximate total: bucket midpoints × counts
}

// Read takes one reading.
func (h *Health) Read() HealthPoint {
	metrics.Read(h.samples)
	var p HealthPoint
	for _, s := range h.samples {
		switch s.Name {
		case mHeapAllocs:
			p.HeapAllocBytes = float64(s.Value.Uint64())
		case mGoroutines:
			p.Goroutines = float64(s.Value.Uint64())
		case mGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				p.GCPauseSeconds = histSum(s.Value.Float64Histogram())
			}
		}
	}
	return p
}

// histSum approximates a histogram's sum from bucket midpoints (an
// infinite edge takes the finite neighbour).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// Watch samples the process while a workload is measured: the
// goroutine count, and resident memory (VmRSS) per measurement window.
type Watch struct {
	stop chan struct{}
	done chan struct{}
	t0   time.Time
	win  time.Duration
	mu   sync.Mutex
	gmax float64
	rss  []float64 // per-window peak VmRSS, MiB
}

// watchEvery is the sampling period.
const watchEvery = 20 * time.Millisecond

// StartWatch samples until Stop, splitting time from now into n windows
// of win each (samples past the last window count in it).
func StartWatch(win time.Duration, n int) *Watch {
	w := &Watch{stop: make(chan struct{}), done: make(chan struct{}), t0: time.Now(), win: win, rss: make([]float64, n)}
	go func() {
		defer close(w.done)
		h := NewHealth()
		t := time.NewTicker(watchEvery)
		defer t.Stop()
		for {
			g := h.Read().Goroutines
			rss := procStatusKB("VmRSS") / 1024
			i := min(int(time.Since(w.t0)/w.win), len(w.rss)-1)
			w.mu.Lock()
			w.gmax = max(w.gmax, g)
			w.rss[i] = max(w.rss[i], rss)
			w.mu.Unlock()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop ends sampling and waits for the sampler to exit.
func (w *Watch) Stop() {
	close(w.stop)
	<-w.done
}

// Goroutines is the highest goroutine count seen.
func (w *Watch) Goroutines() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gmax
}

// WindowPeakRSS is the median over windows of each window's peak
// resident set, in MiB: the serving footprint, robust to one window
// where a collection ran late.
func (w *Watch) WindowPeakRSS() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Median(w.rss)
}
