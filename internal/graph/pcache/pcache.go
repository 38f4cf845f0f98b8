// Package pcache is a buffer pool over a file: fixed PageSize pages
// read on demand through an io.ReaderAt into a bounded set of frames,
// with pin counts and CLOCK eviction. It is the storage engine under
// gstore's paged open (graphs bigger than RAM): the resident budget
// bounds how much of the adjacency ever lives in memory at once, and
// walk-shaped random access hits the pool instead of thrashing an mmap
// the kernel cannot be told the budget for.
//
// A budget of B bytes buys B/PageSize frames (at least minFrames).
// Frame buffers are recycled: an evicted frame's buffer goes on a free
// list and the next miss reads into it, so a pool at steady state
// allocates no page memory per miss. The free list never lets the pool
// own more buffers than its budget's frames; buffers of overflow
// frames (below) go back to the GC as the overflow drains.
//
// Concurrency model: the page table, the CLOCK ring and the free list
// live under one mutex, but I/O never does — a miss inserts a loading
// frame (pinned, so it cannot be evicted) and releases the lock before
// ReadAt; concurrent requests for the same page pin the same frame and
// block on its ready channel until the load finishes, after which an
// atomic flag lets hits skip the channel. A frame with pins > 0 is
// never evicted, so a pinned view's buffer is never recycled under its
// reader. When every frame is pinned the pool admits overflow frames
// beyond the budget rather than deadlock; the overflow drains on the
// next misses or as soon as pins release.
package pcache

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PageSize is the pool's fixed page size. fwtool's per-section page
// counts use the same constant (pinned by a test), so the two can
// never drift. 4 KiB is the OS page size, and small pages spend a
// budget on hot data only: rows are stored degree-descending, so the
// rows walks funnel through share a few pages, and a large page would
// drag cold neighbours of one hot row into memory with it. A row that
// spans pages costs one extra pin (gstore's cursor reads ranges page
// by page), which a walk step — one element — never pays.
const PageSize = 1 << 12

// minFrames is the resident floor: below this a pool cannot make
// progress under concurrent pinning without constant overflow churn.
const minFrames = 8

// Stats is a point-in-time view of the pool's counters and gauges.
type Stats struct {
	// Hits and Misses count Cursor page requests; Evictions counts
	// frames dropped by capacity pressure.
	Hits, Misses, Evictions uint64
	// PinnedPages and ResidentPages are current gauges; BudgetPages is
	// the configured frame budget (ResidentPages may exceed it
	// transiently while every frame is pinned).
	PinnedPages, ResidentPages, BudgetPages int
	// BudgetBytes is the byte budget the pool was built with.
	BudgetBytes int64
}

// Pool is the page cache over one io.ReaderAt.
type Pool struct {
	src    io.ReaderAt
	size   int64 // file size; the last page may be short
	budget int64
	max    int // frame budget in pages

	hits, misses, evictions atomic.Uint64

	mu     sync.Mutex
	frames map[int64]*frame
	clock  []*frame // resident ring; hand sweeps for victims
	hand   int
	pinned int      // frames with pins > 0
	free   [][]byte // PageSize buffers of evicted frames, ready for reuse
}

// frame is one resident page. pins, ref and slot are guarded by the
// pool mutex; data and err are written once before loaded is set (on
// success) and ready closes, and are read-only afterwards.
type frame struct {
	page   int64
	slot   int // index in the pool's clock ring
	pins   int
	ref    bool
	loaded atomic.Bool
	data   []byte
	err    error
	ready  chan struct{}
}

// New builds a pool over src (size bytes long) with a resident budget
// of budgetBytes, floored at a few pages so tiny budgets still make
// progress. src must support concurrent ReadAt (an *os.File does).
func New(src io.ReaderAt, size, budgetBytes int64) *Pool {
	max := int(budgetBytes / PageSize)
	if max < minFrames {
		max = minFrames
	}
	return &Pool{
		src:    src,
		size:   size,
		budget: budgetBytes,
		max:    max,
		frames: make(map[int64]*frame, max+1),
	}
}

// NumPages returns how many pages cover the pool's file.
func (p *Pool) NumPages() int64 { return (p.size + PageSize - 1) / PageSize }

// Stats returns the pool's counters and gauges.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	pinned, resident := p.pinned, len(p.clock)
	p.mu.Unlock()
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Evictions:     p.evictions.Load(),
		PinnedPages:   pinned,
		ResidentPages: resident,
		BudgetPages:   p.max,
		BudgetBytes:   p.budget,
	}
}

// pin returns page's frame with its pin count raised, loading it on a
// miss. The caller must unpin it.
func (p *Pool) pin(page int64) (*frame, error) {
	if page < 0 || page*PageSize >= p.size {
		return nil, fmt.Errorf("pcache: page %d out of range (file %d bytes)", page, p.size)
	}
	p.mu.Lock()
	if f, ok := p.frames[page]; ok {
		if f.pins == 0 {
			p.pinned++
		}
		f.pins++
		f.ref = true
		p.mu.Unlock()
		if !f.loaded.Load() {
			<-f.ready
			if f.err != nil {
				p.unpin(f)
				return nil, f.err
			}
		}
		p.hits.Add(1)
		return f, nil
	}
	// Make room first, so the victim's buffer is on the free list for
	// this miss to take.
	p.evictLocked(p.max - 1)
	buf := p.takeBufLocked()
	f := &frame{page: page, slot: len(p.clock), pins: 1, ref: true, ready: make(chan struct{})}
	p.frames[page] = f
	p.clock = append(p.clock, f)
	p.pinned++
	p.mu.Unlock()

	p.misses.Add(1)
	n := PageSize
	if rest := p.size - page*PageSize; rest < int64(n) {
		n = int(rest)
	}
	if buf == nil {
		buf = alignedBytes(PageSize)
	}
	// ReadAt may report io.EOF alongside a full read of the last page;
	// only a short read is a failure (and always carries an error).
	if got, err := p.src.ReadAt(buf[:n], page*PageSize); got < n {
		f.err = fmt.Errorf("pcache: reading page %d: %w", page, err)
		close(f.ready)
		// Drop the failed frame so a later pin retries the read.
		p.mu.Lock()
		p.dropLocked(f)
		p.releaseBufLocked(buf)
		p.unpinLocked(f)
		p.mu.Unlock()
		return nil, f.err
	}
	f.data = buf[:n]
	f.loaded.Store(true)
	close(f.ready)
	return f, nil
}

// unpin lowers f's pin count.
func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	p.unpinLocked(f)
	p.mu.Unlock()
}

func (p *Pool) unpinLocked(f *frame) {
	f.pins--
	if f.pins == 0 {
		p.pinned--
		// Drain pin-overflow promptly: a hit-only workload would
		// otherwise never trigger the miss-path sweep.
		if len(p.clock) > p.max {
			p.evictLocked(p.max)
		}
	}
}

// dropLocked removes f from the page table and the clock ring in O(1):
// the ring's last frame moves into f's slot.
func (p *Pool) dropLocked(f *frame) {
	delete(p.frames, f.page)
	last := len(p.clock) - 1
	moved := p.clock[last]
	p.clock[f.slot] = moved
	moved.slot = f.slot
	p.clock[last] = nil
	p.clock = p.clock[:last]
	f.slot = -1
	if p.hand >= len(p.clock) {
		p.hand = 0
	}
}

// takeBufLocked pops a recycled page buffer, or returns nil when the
// free list is empty.
func (p *Pool) takeBufLocked() []byte {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	buf := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return buf
}

// releaseBufLocked puts a frame's buffer on the free list unless the
// ring and the list together already account for the whole budget —
// an overflow frame's buffer goes back to the GC instead.
func (p *Pool) releaseBufLocked(buf []byte) {
	if len(p.clock)+len(p.free) < p.max {
		p.free = append(p.free, buf[:cap(buf)])
	}
}

// evictLocked runs the CLOCK sweep until the ring holds at most limit
// frames or every remaining frame is pinned (overflow is tolerated —
// the alternative is deadlock under heavy concurrent pinning).
func (p *Pool) evictLocked(limit int) {
	for len(p.clock) > limit {
		evicted := false
		// Two sweeps: the first clears reference bits, the second takes
		// the first unreferenced unpinned frame.
		for sweep := 0; sweep < 2*len(p.clock); sweep++ {
			if p.hand >= len(p.clock) {
				p.hand = 0
			}
			f := p.clock[p.hand]
			if f.pins == 0 {
				if f.ref {
					f.ref = false
				} else {
					p.dropLocked(f)
					p.releaseBufLocked(f.data)
					p.evictions.Add(1)
					evicted = true
					break
				}
			}
			p.hand++
		}
		if !evicted {
			return // all pinned; overflow stands until pins release
		}
	}
}

// A Cursor is one goroutine's handle on the pool: it keeps its current
// page pinned across View calls, so a run of accesses to one page pins
// and unpins once. Cursors are not safe for concurrent use; Release
// must be called when done.
type Cursor struct {
	p *Pool
	f *frame
}

// NewCursor returns a fresh unpinned cursor.
func (p *Pool) NewCursor() *Cursor { return &Cursor{p: p} }

// View returns page's bytes, pinned until the next View or Release.
// The base address is 8-byte aligned, so callers may take element
// views at element-aligned offsets. The last page is short.
func (c *Cursor) View(page int64) ([]byte, error) {
	if c.f != nil {
		if c.f.page == page {
			return c.f.data, nil
		}
		c.p.unpin(c.f)
		c.f = nil
	}
	f, err := c.p.pin(page)
	if err != nil {
		return nil, err
	}
	c.f = f
	return f.data, nil
}

// Release unpins the cursor's current page. The cursor stays usable.
func (c *Cursor) Release() {
	if c.f != nil {
		c.p.unpin(c.f)
		c.f = nil
	}
}

// alignedBytes returns an n-byte slice with an 8-byte-aligned base (it
// views a []uint64), so element views into pages never misalign.
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// ParseBytes parses a human byte size: a plain integer (bytes) or one
// with a K/M/G or KiB/MiB/GiB suffix (binary units either way). It is
// the parser behind the CLIs' -graph-mem and -target-bytes flags.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			t = t[:len(t)-len(u.suffix)]
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("pcache: bad byte size %q (want e.g. 512MiB, 2G, 1048576)", s)
	}
	if mult > 1 && v > (1<<62)/mult {
		return 0, fmt.Errorf("pcache: byte size %q overflows", s)
	}
	return v * mult, nil
}
