// Package buffer implements the memory buffer manager used by the DUALSIM
// engine: a fixed pool of page frames with pin/unpin semantics, an
// asynchronous read scheduler with completion callbacks (the paper's
// AsyncRead), I/O statistics, and the buffer allocation strategies from
// Section 5 (paper strategy and the equal split used by OPT).
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// PageReader supplies raw page images; *storage.DB implements it.
type PageReader interface {
	ReadPageInto(pid storage.PageID, buf []byte) error
	PageSize() int
	NumPages() int
}

// RunReader is optionally implemented by PageReaders that can fetch a run
// of consecutive pages in one request; *storage.DB (single positional read)
// and *storage.RetryReader (per-page retries, still one simulated seek)
// both do. When the pool's reader implements it, the I/O scheduler issues
// one device request per contiguous non-resident stretch of a coalesced
// run instead of one per page.
type RunReader interface {
	ReadPagesInto(first storage.PageID, buf []byte) error
}

// ErrNoFreeFrame is returned when every frame is pinned and a new page is
// requested. The engine sizes its windows to the pool, so seeing this error
// indicates a planning bug or a too-small buffer.
var ErrNoFreeFrame = errors.New("buffer: all frames pinned")

// defaultMaxRun is the run-coalescing cap applied when Options.MaxRun is
// zero: the page count one I/O request serves with a single simulated
// seek.
const defaultMaxRun = 8

// Options configures a Pool.
type Options struct {
	// Frames is the pool capacity in pages (required, >= 1).
	Frames int
	// IOWorkers is the number of asynchronous read goroutines (default 4).
	IOWorkers int
	// PerPageLatency simulates device transfer time per physical page read.
	PerPageLatency time.Duration
	// SeekLatency is added when a physical read is not sequential with the
	// pool's previous physical read (an HDD-style seek penalty).
	SeekLatency time.Duration
	// MaxRun caps the pages served by one coalesced run request (default 8).
	// Longer AsyncReadRunContext runs are split so a single run cannot
	// monopolize an I/O worker while the others sit idle.
	MaxRun int
	// LazyParse parses pages with storage.ParsePageLazy: records stored
	// compressed keep zero-copy payload views (Record.Comp) aliasing the
	// frame buffer instead of decoding, so the compressed-domain kernels
	// can operate on them in place. A lazily parsed page is valid only
	// while its frame stays pinned — exactly the pin discipline the engine
	// already follows for every page it touches.
	LazyParse bool
}

// Stats counts buffer activity. Retrieved with Pool.Stats.
type Stats struct {
	LogicalReads  uint64 // Pin calls satisfied (hit or miss)
	PhysicalReads uint64 // pages actually read from the reader
	Hits          uint64 // Pin calls satisfied without I/O
	Evictions     uint64 // frames recycled
	// PinWaitNanos is time pinners spent blocked on a page another
	// goroutine was already loading — contention the async scheduler
	// failed to hide.
	PinWaitNanos uint64
	// CoalescedRuns counts multi-page stretches served by the run
	// scheduler with a single simulated seek (one device request when the
	// reader implements RunReader).
	CoalescedRuns uint64
	// CoalescedPages counts the pages those stretches covered.
	CoalescedPages uint64
}

// Sub returns the counter deltas s - prev: the pool activity between two
// Stats snapshots (every field, so a delta never silently drops one).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads - prev.LogicalReads,
		PhysicalReads:  s.PhysicalReads - prev.PhysicalReads,
		Hits:           s.Hits - prev.Hits,
		Evictions:      s.Evictions - prev.Evictions,
		PinWaitNanos:   s.PinWaitNanos - prev.PinWaitNanos,
		CoalescedRuns:  s.CoalescedRuns - prev.CoalescedRuns,
		CoalescedPages: s.CoalescedPages - prev.CoalescedPages,
	}
}

type frame struct {
	pid   storage.PageID
	pins  int
	page  *storage.Page
	err   error
	ready chan struct{}
	buf   []byte
}

// ioRequest is one unit of scheduled asynchronous I/O: n consecutive pages
// starting at pid (n == 1 for the classic AsyncRead). cb runs once per
// page, in ascending page order.
type ioRequest struct {
	ctx context.Context
	pid storage.PageID
	n   int
	cb  func(storage.PageID, *storage.Page, error)
	wg  *sync.WaitGroup
}

// Pool is a fixed-capacity page buffer. All methods are safe for concurrent
// use.
type Pool struct {
	reader    PageReader
	runReader RunReader // reader's optional multi-page path; nil if unsupported
	opts      Options

	mu        sync.Mutex
	frames    []frame
	table     map[storage.PageID]int
	free      []int
	evictable []int // candidate frame indexes with pins == 0 (lazily validated)

	logical   atomic.Uint64
	physical  atomic.Uint64
	hits      atomic.Uint64
	evictions atomic.Uint64
	pinWait   atomic.Uint64
	runs      atomic.Uint64
	runPages  atomic.Uint64
	lastRead  atomic.Int64 // previous physical pid, for seek simulation

	// attr is the active query's attribution scope, installed by the
	// engine for the duration of a run (the engine runs one query at a
	// time and owns this pool exclusively, so a single slot suffices).
	// Stat increments mirror into it when non-nil; the disabled path
	// costs one atomic pointer load per pool operation.
	attr atomic.Pointer[obs.Scope]

	ioq    chan ioRequest
	ioWG   sync.WaitGroup
	closed atomic.Bool
	// shutMu serializes request enqueue against Close: senders hold the read
	// half across the closed-check and the channel send, Close takes the
	// write half around closing ioq, so a send can never hit a closed
	// channel (the AsyncRead-vs-Close panic fixed in PR 5). Workers never
	// take it, so a sender blocked on a full queue still drains.
	shutMu sync.RWMutex

	// runBufs recycles the scratch buffers multi-page device requests read
	// into; each page image is copied into its frame's own buffer before
	// parsing, so the scratch never outlives the request even when lazy
	// parsing keeps zero-copy spans into the parsed buffer.
	runBufs sync.Pool
}

// NewPool creates a pool over reader with opts.Frames frames.
func NewPool(reader PageReader, opts Options) (*Pool, error) {
	if opts.Frames < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 frame, got %d", opts.Frames)
	}
	if opts.IOWorkers <= 0 {
		opts.IOWorkers = 4
	}
	if opts.MaxRun <= 0 {
		opts.MaxRun = defaultMaxRun
	}
	p := &Pool{
		reader: reader,
		opts:   opts,
		frames: make([]frame, opts.Frames),
		table:  make(map[storage.PageID]int, opts.Frames),
		free:   make([]int, 0, opts.Frames),
		ioq:    make(chan ioRequest, 4*opts.IOWorkers),
	}
	p.runReader, _ = reader.(RunReader)
	p.lastRead.Store(-2)
	for i := opts.Frames - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	for i := 0; i < opts.IOWorkers; i++ {
		p.ioWG.Add(1)
		go p.ioWorker()
	}
	return p, nil
}

// Close stops the I/O workers. Pending async requests complete first;
// requests racing with Close are rejected with ErrPoolClosed instead of
// panicking (see shutMu).
func (p *Pool) Close() {
	p.shutMu.Lock()
	if p.closed.CompareAndSwap(false, true) {
		close(p.ioq)
	}
	p.shutMu.Unlock()
	p.ioWG.Wait()
}

// Capacity returns the frame count.
func (p *Pool) Capacity() int { return p.opts.Frames }

// SetAttribution installs (or with nil clears) the query attribution
// scope that pin/read stats mirror into. The engine calls it at run
// start/end; because one run owns the pool at a time and every physical
// read settles before the run returns, attributed counts partition the
// global ones exactly.
func (p *Pool) SetAttribution(sc *obs.Scope) { p.attr.Store(sc) }

// Stats returns a snapshot of the pool counters. Every counter is an
// atomic, so snapshots are race-free against concurrent pinners and I/O
// workers without taking Pool.mu (verified by TestStatsRaceFree under
// -race); the fields are loaded independently, so a snapshot is not a
// single linearization point across counters.
func (p *Pool) Stats() Stats {
	return Stats{
		LogicalReads:   p.logical.Load(),
		PhysicalReads:  p.physical.Load(),
		Hits:           p.hits.Load(),
		Evictions:      p.evictions.Load(),
		PinWaitNanos:   p.pinWait.Load(),
		CoalescedRuns:  p.runs.Load(),
		CoalescedPages: p.runPages.Load(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.logical.Store(0)
	p.physical.Store(0)
	p.hits.Store(0)
	p.evictions.Store(0)
	p.pinWait.Store(0)
	p.runs.Store(0)
	p.runPages.Store(0)
}

// Resident reports whether pid is currently buffered (loaded or loading).
func (p *Pool) Resident(pid storage.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.table[pid]
	return ok
}

// PinnedCount returns the number of frames with at least one pin. For tests.
func (p *Pool) PinnedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

// Pin fetches page pid, reading it if absent, and holds it in memory until
// a matching Unpin. The returned page is shared and must not be modified.
func (p *Pool) Pin(pid storage.PageID) (*storage.Page, error) {
	return p.PinContext(context.Background(), pid)
}

// PinContext is Pin observing cancellation: a canceled context is checked
// before any work and again before the physical read, so a canceled caller
// never starts new I/O (an in-flight read is never interrupted — it is one
// bounded page transfer, and abandoning it would leak the frame). On
// cancellation the pin is fully released and ctx.Err() returned.
func (p *Pool) PinContext(ctx context.Context, pid storage.PageID) (*storage.Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := p.attr.Load()
	p.logical.Add(1)
	if sc != nil {
		sc.LogicalReads.Add(1)
	}
	p.mu.Lock()
	if idx, ok := p.table[pid]; ok {
		f := &p.frames[idx]
		f.pins++
		ready := f.ready
		p.mu.Unlock()
		// Fast path: the page is already loaded. Only a pin that actually
		// blocks on an in-flight load pays for the clock reads.
		select {
		case <-ready:
		default:
			waitStart := time.Now()
			<-ready
			d := uint64(time.Since(waitStart))
			p.pinWait.Add(d)
			if sc != nil {
				sc.PinWaitNanos.Add(d)
			}
		}
		if f.err != nil {
			err := f.err
			p.Unpin(pid)
			return nil, err
		}
		p.hits.Add(1)
		if sc != nil {
			sc.BufferHits.Add(1)
		}
		return f.page, nil
	}
	idx, err := p.acquireFrameLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f := &p.frames[idx]
	f.pid = pid
	f.pins = 1
	f.err = nil
	f.page = nil
	f.ready = make(chan struct{})
	if f.buf == nil {
		f.buf = make([]byte, p.reader.PageSize())
	}
	p.table[pid] = idx
	p.mu.Unlock()

	loadErr := p.simulateLatency(ctx, pid)
	if loadErr == nil {
		loadErr = p.reader.ReadPageInto(pid, f.buf)
		if loadErr == nil {
			f.page, loadErr = p.parsePage(f.buf)
		}
		p.physical.Add(1)
		if sc != nil {
			sc.PagesRead.Add(1)
		}
	}
	f.err = loadErr
	close(f.ready)
	if loadErr != nil {
		p.Unpin(pid)
		return nil, loadErr
	}
	return f.page, nil
}

// Unpin releases one pin on pid. Unpinning a page that is not resident or
// not pinned panics: it is always a caller bug.
func (p *Pool) Unpin(pid storage.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.table[pid]
	if !ok {
		panic(fmt.Sprintf("buffer: unpin of non-resident page %d", pid))
	}
	f := &p.frames[idx]
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", pid))
	}
	f.pins--
	if f.pins == 0 {
		if f.err != nil {
			// Drop failed loads immediately so they are retried next time.
			delete(p.table, pid)
			p.free = append(p.free, idx)
			return
		}
		p.evictable = append(p.evictable, idx)
	}
}

// acquireFrameLocked returns a frame index ready for reuse. Caller holds mu.
func (p *Pool) acquireFrameLocked() (int, error) {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		return idx, nil
	}
	for len(p.evictable) > 0 {
		idx := p.evictable[0]
		p.evictable = p.evictable[1:]
		f := &p.frames[idx]
		if f.pins != 0 {
			continue // re-pinned since enqueued
		}
		if cur, ok := p.table[f.pid]; !ok || cur != idx {
			continue // stale entry
		}
		delete(p.table, f.pid)
		p.evictions.Add(1)
		return idx, nil
	}
	// Slow fallback: the evictable queue can miss frames when entries were
	// skipped as stale; rescan.
	for idx := range p.frames {
		f := &p.frames[idx]
		if f.pins == 0 {
			if cur, ok := p.table[f.pid]; ok && cur == idx {
				delete(p.table, f.pid)
				p.evictions.Add(1)
				return idx, nil
			}
		}
	}
	return 0, ErrNoFreeFrame
}

// simulateLatency sleeps the configured device delay for a single-page
// read, waking early (and returning ctx.Err) if the context is canceled
// mid-sleep.
func (p *Pool) simulateLatency(ctx context.Context, pid storage.PageID) error {
	return p.simulateRunLatency(ctx, pid, 1)
}

// simulateRunLatency charges a run of n consecutive physical page reads
// starting at first: n per-page transfer delays but at most one seek —
// the amortization sequential run coalescing exists to buy.
func (p *Pool) simulateRunLatency(ctx context.Context, first storage.PageID, n int) error {
	if p.opts.PerPageLatency == 0 && p.opts.SeekLatency == 0 {
		return ctx.Err()
	}
	last := p.lastRead.Swap(int64(first) + int64(n) - 1)
	d := time.Duration(n) * p.opts.PerPageLatency
	if int64(first) != last+1 {
		d += p.opts.SeekLatency
	}
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrPoolClosed is delivered to AsyncRead callbacks issued after Close.
var ErrPoolClosed = errors.New("buffer: pool closed")

// enqueue submits req to the I/O workers, returning false when the pool is
// (or is concurrently being) closed. The shutMu read lock spans the
// closed-check and the send, so Close cannot close ioq in between.
func (p *Pool) enqueue(req ioRequest) bool {
	p.shutMu.RLock()
	defer p.shutMu.RUnlock()
	if p.closed.Load() {
		return false
	}
	p.ioq <- req
	return true
}

// AsyncRead schedules a read of pid; cb runs in an I/O worker goroutine once
// the page is pinned (or failed). The page stays pinned across the callback
// and until the caller Unpins it — mirroring the paper's AsyncRead whose
// callback (ComputeCandidateSequences / ExtVertexMapping) processes the page
// while further reads proceed. wg, if non-nil, is Done when cb returns.
// After Close, the callback fires immediately with ErrPoolClosed.
func (p *Pool) AsyncRead(pid storage.PageID, wg *sync.WaitGroup, cb func(*storage.Page, error)) {
	p.AsyncReadContext(context.Background(), pid, wg, cb)
}

// AsyncReadContext is AsyncRead bound to ctx: a request whose context is
// already canceled when a worker dequeues it is not read — the callback
// fires with ctx.Err() and no page. This drains queued I/O promptly on
// cancellation instead of finishing a window's worth of stale reads.
func (p *Pool) AsyncReadContext(ctx context.Context, pid storage.PageID, wg *sync.WaitGroup, cb func(*storage.Page, error)) {
	var pcb func(storage.PageID, *storage.Page, error)
	if cb != nil {
		pcb = func(_ storage.PageID, page *storage.Page, err error) { cb(page, err) }
	}
	if !p.enqueue(ioRequest{ctx: ctx, pid: pid, n: 1, cb: pcb, wg: wg}) {
		if cb != nil {
			cb(nil, ErrPoolClosed)
		}
		if wg != nil {
			wg.Done()
		}
	}
}

// AsyncReadRunContext schedules the n consecutive pages [first, first+n) as
// coalesced run requests: cb runs once per page, in ascending page order
// within each request, with each page pinned exactly as by AsyncReadContext
// (the caller Unpins pages delivered without error). Contiguous
// non-resident stretches are read with a single simulated seek — and a
// single device request when the reader implements RunReader — so a
// sequential window load pays one positioning delay instead of n. Runs
// longer than Options.MaxRun are split across several requests (possibly
// served by different workers). wg, if non-nil, must have been Add(n)'d; it
// is Done once per page. After Close every callback fires immediately with
// ErrPoolClosed.
func (p *Pool) AsyncReadRunContext(ctx context.Context, first storage.PageID, n int, wg *sync.WaitGroup, cb func(storage.PageID, *storage.Page, error)) {
	for n > 0 {
		chunk := n
		if chunk > p.opts.MaxRun {
			chunk = p.opts.MaxRun
		}
		if !p.enqueue(ioRequest{ctx: ctx, pid: first, n: chunk, cb: cb, wg: wg}) {
			for i := 0; i < n; i++ {
				if cb != nil {
					cb(first+storage.PageID(i), nil, ErrPoolClosed)
				}
				if wg != nil {
					wg.Done()
				}
			}
			return
		}
		first += storage.PageID(chunk)
		n -= chunk
	}
}

func (p *Pool) ioWorker() {
	defer p.ioWG.Done()
	for req := range p.ioq {
		if req.n <= 1 {
			p.servePage(req)
		} else {
			p.serveRun(req)
		}
	}
}

// servePage serves a single-page request: pin (loading if absent), deliver.
func (p *Pool) servePage(req ioRequest) {
	var page *storage.Page
	err := req.ctx.Err()
	if err == nil {
		page, err = p.PinContext(req.ctx, req.pid)
	}
	if req.cb != nil {
		req.cb(req.pid, page, err)
	}
	if req.wg != nil {
		req.wg.Done()
	}
}

// runSlot is the per-page state of one coalesced run request.
type runSlot struct {
	idx  int  // frame index (valid when hit or load)
	hit  bool // resident: wait on the frame's ready channel
	load bool // this request owns the frame's physical load
	err  error
}

// serveRun serves a coalesced run request in three phases: classify every
// page under the pool lock (hit, frame acquired for load, or error), read
// each maximal contiguous stretch of loads with one seek, then deliver the
// callbacks in page order. Failure handling per page matches PinContext:
// a page that cannot be loaded is delivered with its error and no pin.
func (p *Pool) serveRun(req ioRequest) {
	slots := make([]runSlot, req.n)
	ctxErr := req.ctx.Err()
	sc := p.attr.Load()
	p.mu.Lock()
	for i := range slots {
		pid := req.pid + storage.PageID(i)
		if ctxErr != nil {
			slots[i].err = ctxErr
			continue
		}
		p.logical.Add(1)
		if sc != nil {
			sc.LogicalReads.Add(1)
		}
		if idx, ok := p.table[pid]; ok {
			p.frames[idx].pins++
			slots[i] = runSlot{idx: idx, hit: true}
			continue
		}
		idx, err := p.acquireFrameLocked()
		if err != nil {
			slots[i].err = err
			continue
		}
		f := &p.frames[idx]
		f.pid = pid
		f.pins = 1
		f.err = nil
		f.page = nil
		f.ready = make(chan struct{})
		if f.buf == nil {
			f.buf = make([]byte, p.reader.PageSize())
		}
		p.table[pid] = idx
		slots[i] = runSlot{idx: idx, load: true}
	}
	p.mu.Unlock()

	for i := 0; i < req.n; {
		if !slots[i].load {
			i++
			continue
		}
		j := i + 1
		for j < req.n && slots[j].load {
			j++
		}
		p.readStretch(req.ctx, req.pid+storage.PageID(i), slots[i:j])
		i = j
	}

	for i := range slots {
		pid := req.pid + storage.PageID(i)
		s := slots[i]
		var page *storage.Page
		err := s.err
		if err == nil {
			f := &p.frames[s.idx]
			if s.hit {
				select {
				case <-f.ready:
				default:
					waitStart := time.Now()
					<-f.ready
					d := uint64(time.Since(waitStart))
					p.pinWait.Add(d)
					if sc != nil {
						sc.PinWaitNanos.Add(d)
					}
				}
				if f.err == nil {
					p.hits.Add(1)
					if sc != nil {
						sc.BufferHits.Add(1)
					}
				}
			}
			page, err = f.page, f.err
			if err != nil {
				p.Unpin(pid)
				page = nil
			}
		}
		if req.cb != nil {
			req.cb(pid, page, err)
		}
		if req.wg != nil {
			req.wg.Done()
		}
	}
}

// readStretch physically loads the consecutive pages claimed by slots (all
// marked load), charging one seek for the whole stretch. With a RunReader
// the stretch is one device request into pooled scratch; otherwise pages
// are read back to back into their frames. Each frame's err/page is set
// and its ready channel closed.
func (p *Pool) readStretch(ctx context.Context, first storage.PageID, slots []runSlot) {
	n := len(slots)
	sc := p.attr.Load()
	if n > 1 {
		p.runs.Add(1)
		p.runPages.Add(uint64(n))
		if sc != nil {
			sc.CoalescedRuns.Add(1)
			sc.CoalescedPages.Add(uint64(n))
		}
	}
	err := p.simulateRunLatency(ctx, first, n)
	if err == nil && n > 1 && p.runReader != nil {
		ps := p.reader.PageSize()
		buf := p.takeRunBuf(n * ps)
		if rerr := p.runReader.ReadPagesInto(first, buf); rerr != nil {
			err = rerr
		} else {
			for i := range slots {
				f := &p.frames[slots[i].idx]
				// Copy the page image into the frame's own buffer before
				// parsing: the run scratch is recycled via putRunBuf, so a
				// lazily parsed page's zero-copy spans must alias frame
				// memory, never the scratch.
				copy(f.buf, buf[i*ps:(i+1)*ps])
				f.page, f.err = p.parsePage(f.buf)
				p.physical.Add(1)
				close(f.ready)
			}
			if sc != nil {
				sc.PagesRead.Add(uint64(n))
			}
			p.putRunBuf(buf)
			return
		}
		p.putRunBuf(buf)
	}
	if err != nil {
		for i := range slots {
			f := &p.frames[slots[i].idx]
			f.err = err
			close(f.ready)
		}
		return
	}
	for i := range slots {
		f := &p.frames[slots[i].idx]
		rerr := p.reader.ReadPageInto(first+storage.PageID(i), f.buf)
		if rerr == nil {
			f.page, rerr = p.parsePage(f.buf)
		}
		f.err = rerr
		p.physical.Add(1)
		if sc != nil {
			sc.PagesRead.Add(1)
		}
		close(f.ready)
	}
}

// parsePage parses a page image that is owned by a frame buffer, honoring
// the pool's LazyParse option. Lazy pages keep zero-copy compressed spans
// into that buffer, so callers must only pass frame-owned memory.
func (p *Pool) parsePage(buf []byte) (*storage.Page, error) {
	if p.opts.LazyParse {
		return storage.ParsePageLazy(buf)
	}
	return storage.ParsePage(buf)
}

// takeRunBuf returns a scratch buffer of exactly size bytes, recycled via
// runBufs when a previous request's buffer is large enough. Page images are
// always copied out of the scratch into frame buffers before parsing, so
// the scratch never outlives the request.
func (p *Pool) takeRunBuf(size int) []byte {
	if b, ok := p.runBufs.Get().([]byte); ok && cap(b) >= size {
		return b[:size]
	}
	return make([]byte, size)
}

// putRunBuf returns a scratch buffer to the recycle pool.
func (p *Pool) putRunBuf(buf []byte) { p.runBufs.Put(buf[:cap(buf)]) }
