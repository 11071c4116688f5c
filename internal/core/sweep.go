package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// This file is the engine's one level-1 loop (Algorithm 1 lines 7-16): a
// Sweep owns the level-1 window cycle over the whole vertex range, and each
// query is a Rider that evaluates its v-group forests against every pinned
// window before the sweep advances. A solo run (Engine.RunSpecContext) is a
// private sweep carrying one rider; shared-scan execution (see
// internal/sharedscan for the cohort scheduler) is a sweep carrying many.
//
// The design leans on two engine invariants:
//
//   - Level 1 is always a forest root, so every plan's level-1 merged
//     candidate sequence is the full vertex range. One partition therefore
//     serves every query on the database, regardless of query shape.
//   - The total embedding count is invariant under level-1 window chopping
//     (each embedding is counted exactly once, by the window containing its
//     first matching-order position — the Checkpoint contract). The cycle
//     may start anywhere: a rider that joins at window i and consumes
//     i..m-1, 0..i-1 sums the same per-window tallies as a solo run, and a
//     resumed rider that narrows the window holding its cursor to start
//     there counts exactly what a window starting at the cursor would.

// ErrRiderNotEligible reports a query a sweep cannot carry: its
// live-ingest overlay is not the sweep's (cohort sweeps read the base file
// only), or its plan is too deep for the per-rider frame share. Callers
// fall back to a solo engine; nothing about the query is wrong.
var ErrRiderNotEligible = errors.New("core: query not eligible for the shared sweep; run it solo")

// WindowBounds is one level-1 window of the shared partition: vertex
// indices [Lo, Hi) into the ascending full range.
type WindowBounds struct {
	// Lo is the first vertex index of the window.
	Lo int
	// Hi is one past the last vertex index of the window.
	Hi int
}

// SweepOptions configures Engine.NewSweep.
type SweepOptions struct {
	// MaxRiders bounds concurrent riders; the pool's frames are split into
	// a level-1 sweep budget and MaxRiders equal deep-level shares, so the
	// worst-case pin count never exceeds the pool (default 1).
	MaxRiders int
	// Scope, when non-nil, receives the sweep's attribution: it is
	// installed as the pool's attribution sink for the sweep's lifetime,
	// so every physical page read of the cohort — the shared level-1 loads
	// and the riders' deep-level misses — is charged once, to the sweep.
	// Riders attribute their consumption of shared windows through their
	// own scopes' SharedPages instead.
	Scope *obs.Scope
}

// Sweep is a sharable level-1 scan source: the deterministic window
// partition of the full vertex range plus the machinery to load, pin, and
// release one window at a time against the engine's pool. A Sweep holds
// the engine's run guard (the pool budget is planned for the sweep plus
// its riders), so solo runs and sweeps exclude each other per engine.
//
// A Sweep is driven by one orchestrating goroutine: Load/Release/NewRider/
// Close are not concurrently safe. Riders process delivered windows from
// their own goroutines.
type Sweep struct {
	e     *Engine
	scope *obs.Scope
	// overlay is the live-ingest snapshot every window is merged with
	// before its seal; nil for cohort sweeps, which serve the base file.
	overlay     *delta.Snapshot
	bounds      []WindowBounds
	riderFrames int // deep-level frame share per rider
	maxRiders   int
	// private marks a solo run's sweep: its one rider owns the level-1
	// loads, so their I/O wait, retries and trace events are the rider's
	// own rather than shared-window consumption.
	private bool
	ioWait  time.Duration // level-1 load wait, summed over every Load
	retries uint64        // level-1 window retries absorbed
	closed  bool
}

// NewSweep plans a shared scan: it takes the engine's run guard, splits the
// frame budget (riders share half the pool for their deep levels, the
// sweep's level-1 windows get the rest), and precomputes the level-1
// partition. The partition is a pure function of the database layout and
// the sweep budget, so it is identical across sweeps of the same engine —
// the property late-join correctness rests on.
func (e *Engine) NewSweep(opts SweepOptions) (*Sweep, error) {
	if opts.MaxRiders < 1 {
		opts.MaxRiders = 1
	}
	if !e.running.CompareAndSwap(false, true) {
		return nil, ErrEngineBusy
	}
	riderShare := (e.frames / 2) / opts.MaxRiders
	b1 := e.frames - opts.MaxRiders*riderShare
	if b1 < e.maxSpan {
		e.running.Store(false)
		return nil, fmt.Errorf("core: %d frames cannot give a shared sweep a %d-page level-1 budget beside %d riders; increase the buffer size",
			e.frames, e.maxSpan, opts.MaxRiders)
	}
	s, err := e.newSweep(b1, opts.Scope, nil)
	if err != nil {
		e.running.Store(false)
		return nil, err
	}
	s.riderFrames = riderShare
	s.maxRiders = opts.MaxRiders
	return s, nil
}

// newSweep plans the level-1 cycle over budget frames: the partition and
// the pool's attribution sink. The caller holds the engine's run guard;
// Close returns it.
func (e *Engine) newSweep(budget int, scope *obs.Scope, ov *delta.Snapshot) (*Sweep, error) {
	bounds, err := levelOnePartition(e, budget)
	if err != nil {
		return nil, err
	}
	s := &Sweep{e: e, scope: scope, overlay: ov, bounds: bounds}
	if scope != nil {
		e.pool.SetAttribution(scope)
	}
	return s, nil
}

// levelOnePartition walks the level-1 budget over the full vertex range
// with no outer pins, producing the fixed window list a sweep cycles.
func levelOnePartition(e *Engine, budget int) ([]WindowBounds, error) {
	all := e.all
	var bounds []WindowBounds
	i := 0
	for i < len(all) {
		newPages := make(map[storage.PageID]bool)
		j := i
		for j < len(all) {
			first, last := e.db.SpanOf(all[j])
			added := 0
			for p := first; p <= last; p++ {
				if !newPages[p] {
					added++
				}
			}
			if len(newPages)+added > budget {
				if j == i {
					return nil, fmt.Errorf("core: vertex %d spans %d pages, exceeding the %d-frame level-1 budget; increase the buffer size",
						all[j], last-first+1, budget)
				}
				break
			}
			for p := first; p <= last; p++ {
				newPages[p] = true
			}
			j++
		}
		bounds = append(bounds, WindowBounds{Lo: i, Hi: j})
		i = j
	}
	return bounds, nil
}

// Windows returns the number of level-1 windows in the shared partition —
// the cycle length every rider consumes exactly once.
func (s *Sweep) Windows() int { return len(s.bounds) }

// RiderFrames returns the deep-level frame share each rider plans against.
func (s *Sweep) RiderFrames() int { return s.riderFrames }

// Bounds returns the partition entry at index i.
func (s *Sweep) Bounds(i int) WindowBounds { return s.bounds[i] }

// SweepWindow is one loaded, pinned, sealed level-1 window, delivered to
// every rider before Release. Riders read its adjacency map concurrently;
// the sweep owns its buffer pins.
type SweepWindow struct {
	lw    *levelWindow
	index int
	start time.Time     // when Load began
	wait  time.Duration // I/O wait of the successful load attempt
}

// Index returns the window's partition index.
func (w *SweepWindow) Index() int { return w.index }

// Pages returns the number of pages the window pinned.
func (w *SweepWindow) Pages() int { return len(w.lw.pages) }

// Load pins partition window idx: pages issued as coalesced ascending runs,
// split records merged, the sweep's overlay applied, the window sealed.
// Transient faults are retried with the engine's window-retry budget
// (pages that loaded before a fault are resident, so a retry re-reads only
// the failures). next is ignored; it stays for callers that pass it.
func (s *Sweep) Load(ctx context.Context, idx, next int) (*SweepWindow, error) {
	b := s.bounds[idx]
	w := &SweepWindow{index: idx, start: time.Now()}
	for attempt := 0; ; attempt++ {
		lw := newLevelWindow(s.e.db, s.e.all[b.Lo:b.Hi], 0, false)
		wait, err := s.e.fillWindow(ctx, lw, s.scope, s.overlay, nil)
		s.ioWait += wait
		if s.e.tracer != nil && !s.private {
			s.emitEvent(obs.Event{Event: "sweep_window_pinned", Level: 1, Window: idx + 1,
				Pages: len(lw.pages), DurUS: wait.Microseconds()})
		}
		if err == nil {
			w.lw, w.wait = lw, wait
			break
		}
		s.unpin(lw)
		if attempt >= s.e.opts.WindowRetries || !storage.IsTransient(err) || ctx.Err() != nil {
			return nil, err
		}
		s.retries++
		s.e.em.windowRetries.Inc()
		if s.scope != nil {
			s.scope.WindowRetries.Add(1)
		}
		if s.e.tracer != nil {
			s.emitEvent(obs.Event{Event: "sweep_window_retry", Level: 1, Window: idx + 1, Attempt: attempt + 1})
		}
		if !sleepBackoff(ctx, s.e.opts, attempt) {
			return nil, ctx.Err()
		}
	}
	return w, nil
}

// Release unpins a delivered window. Every rider must have returned from
// ProcessWindow first — their adjacency reads are only valid while the
// sweep's pins hold the pages resident.
func (s *Sweep) Release(w *SweepWindow) {
	s.unpin(w.lw)
}

func (s *Sweep) unpin(lw *levelWindow) {
	for pid := range lw.pinned {
		s.e.pool.Unpin(pid)
	}
	lw.pinned = nil
	lw.loadedPages = nil
}

// Close releases the pool's attribution slot and returns the engine's run
// guard. The sweep is unusable afterwards.
func (s *Sweep) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.scope != nil {
		s.e.pool.SetAttribution(nil)
	}
	s.e.running.Store(false)
}

func (s *Sweep) emitEvent(e obs.Event) {
	if s.scope != nil {
		e.TraceID = s.scope.TraceID()
	}
	s.e.tracer.Emit(e)
}

// sleepBackoff waits the attempt's window-level backoff (0-based, doubling
// from WindowRetryBackoff up to WindowRetryMaxBackoff), honouring ctx.
// Reports false when the context ended first.
func sleepBackoff(ctx context.Context, opts Options, attempt int) bool {
	d := opts.WindowRetryBackoff
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	max := opts.WindowRetryMaxBackoff
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if sleep := opts.WindowRetrySleep; sleep != nil {
		sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Rider is one query riding a Sweep: a full run state (own worker pool,
// own deep-level budget, own scope and spans, own path pins) whose level-1
// windows arrive pre-loaded from the sweep instead of being iterated and
// pinned by the run itself. A rider consumes every partition window exactly
// once, in cycle order from wherever it joined; commutativity of the
// per-window tallies makes the total identical to an uninterrupted pass.
type Rider struct {
	s         *Sweep
	r         *run
	frames    int // frame budget the rider planned against (Result.BufferFrames)
	startExec time.Time
	rootSpan  uint64
	resumed   bool

	// cursor is the resume checkpoint's level-1 vertex index (0 for a
	// fresh run): windows ending at or before it are skipped, and the
	// window holding it is narrowed to start there.
	cursor int
	// frontier is the end of the contiguous vertex prefix [0, frontier)
	// the rider has settled, or -1 once it consumed a window past a gap
	// (a late joiner). Only a contiguous prefix is a valid resume cursor,
	// so checkpoints are emitted while frontier >= 0.
	frontier    int
	processed   int
	sharedPages uint64
	closed      bool
}

// NewRider plans a rider for spec on the sweep. A spec whose overlay is not
// the sweep's, or whose plan's deep levels cannot fit the per-rider frame
// share, returns ErrRiderNotEligible (wrapped); the caller runs those solo.
// A resume spec boards like any other and skips the windows its
// checkpoint already settled. threads sizes the rider's private worker
// pool (0 = engine threads divided by MaxRiders).
func (s *Sweep) NewRider(ctx context.Context, spec RunSpec, threads int) (*Rider, error) {
	if spec.Plan == nil {
		return nil, fmt.Errorf("core: RunSpec without a plan")
	}
	if threads <= 0 {
		threads = max(s.e.opts.Threads/s.maxRiders, 1)
	}
	// alloc[0] stays 0: the sweep owns the level-1 pins. Deep levels split
	// the rider share with the usual strategy and must each hold one
	// maximal vertex.
	k := spec.Plan.K
	alloc := make([]int, k)
	if k > 1 {
		deep, err := buffer.Allocate(s.riderFrames, k-1, threads)
		if err == nil {
			err = ensureSpanBudget(deep, s.riderFrames, s.e.maxSpan)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRiderNotEligible, err)
		}
		copy(alloc[1:], deep)
	}
	return s.newRider(ctx, spec, s.e.runScope(spec), alloc, threads, s.riderFrames)
}

// newRider builds the rider (and its run state) for spec with deep-level
// budgets alloc[1:]. frames is the budget reported in run_start and
// Result.BufferFrames.
func (s *Sweep) newRider(ctx context.Context, spec RunSpec, scope *obs.Scope, alloc []int, threads, frames int) (*Rider, error) {
	if liveOverlay(spec.Overlay) != s.overlay {
		return nil, fmt.Errorf("%w: live-ingest overlay differs from the sweep's", ErrRiderNotEligible)
	}
	cp := spec.Resume
	if cp != nil {
		if err := s.e.validateResume(cp, spec.Plan); err != nil {
			return nil, err
		}
	}
	r := s.e.newRun(ctx, spec, scope, alloc, threads)
	rd := &Rider{s: s, r: r, frames: frames, startExec: time.Now(), resumed: cp != nil}
	if cp != nil {
		// Totals and window ordinals continue from the checkpoint.
		rd.cursor, rd.frontier = cp.Cursor, cp.Cursor
		r.internalCount.Store(cp.Internal)
		r.externalCount.Store(cp.External)
		r.windowsPer[0] = cp.Windows
	}
	s.e.em.runs.Inc()
	if scope != nil {
		rd.rootSpan = scope.RootSpan()
	}
	r.emit(obs.Event{Event: "run_start", Levels: r.k, Frames: frames,
		Span: r.querySpan, Parent: rd.rootSpan})
	if lvl := r.span(); lvl != 0 {
		r.levelSpan[0] = lvl
		r.emit(obs.Event{Event: "level_start", Level: 1, Span: lvl, Parent: r.querySpan})
	}
	return rd, nil
}

// skips reports whether partition window b lies wholly before the rider's
// resume cursor (settled by the checkpoint it resumed from).
func (rd *Rider) skips(b WindowBounds) bool { return b.Hi <= rd.cursor }

// SkipWindow consumes partition window idx without its pages when the
// rider's checkpoint already settled it, and reports whether it did. A
// sweep whose every rider skips a window advances past it unloaded.
func (rd *Rider) SkipWindow(idx int) bool {
	if !rd.skips(rd.s.bounds[idx]) {
		return false
	}
	rd.processed++
	return true
}

// Done reports that the rider has consumed every partition window.
func (rd *Rider) Done() bool { return rd.processed >= len(rd.s.bounds) }

// SharedPages returns the pages of shared windows attributed to this rider
// (logical consumption; the physical reads are charged to the sweep).
func (rd *Rider) SharedPages() uint64 { return rd.sharedPages }

// ProcessWindow evaluates the rider's plan against one delivered window
// (Algorithm 1 lines 11-16): child candidates from the window, internal
// enumeration overlapped with the external traversal of the deeper levels.
// On return no rider task is running — the sweep may release the window's
// pins.
func (rd *Rider) ProcessWindow(w *SweepWindow) error {
	if rd.SkipWindow(w.index) {
		return nil
	}
	r := rd.r
	b := rd.s.bounds[w.index]
	if err := r.ctx.Err(); err != nil {
		r.fail(err)
		return err
	}
	if err := r.firstErr(); err != nil {
		return err
	}
	// Rider-local view: shared read-only adjacency and page identity, own
	// group membership, own window-local tallies, no pins of its own
	// (pinned nil — the sweep owns the buffer pins). The window holding
	// the resume cursor starts at the cursor: earlier vertices are then
	// external to it, exactly as in a window that began there.
	lo := max(b.Lo, rd.cursor)
	src := w.lw
	lw := &levelWindow{
		verts:       make([][]graph.VertexID, len(r.p.Groups)),
		adj:         src.adj,
		lo:          r.e.all[lo],
		hi:          src.hi,
		pages:       src.pages,
		loadedPages: src.loadedPages,
	}
	lw.sealed.Store(true)
	for g := range r.p.Groups {
		lw.verts[g] = sliceRange(r.cand[g][0].slice(r.e.all), lw.lo, lw.hi)
	}
	// Path-pin accounting: deep-level windows treat the level-1 pages as
	// free budget — they stay pinned for the window's lifetime.
	for _, pid := range lw.pages {
		r.pathPinned[pid]++
	}
	r.winData[0] = lw
	ord := r.windowsPer[0] + 1
	windowStart := time.Now()
	if rd.s.private {
		windowStart = w.start // the rider's own load is part of its window
	}
	r.winSpan[0] = r.span()
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_open", Level: 1, Window: ord, Verts: b.Hi - lo,
			Lo: uint64(lw.lo), Hi: uint64(lw.hi), Span: r.winSpan[0], Parent: r.levelSpan[0]})
		if rd.s.private {
			r.emit(obs.Event{Event: "window_pinned", Level: 1, Window: ord,
				Pages: len(lw.pages), DurUS: w.wait.Microseconds(), Span: r.winSpan[0]})
		}
	}
	r.windowsPer[0]++
	r.em.windows.Inc()
	r.em.windowsLevel1.Inc()
	if r.scope != nil {
		r.scope.Windows.Add(1)
		r.scope.WindowsLevel1.Add(1)
	}
	if !rd.s.private {
		rd.sharedPages += uint64(len(lw.pages))
		if r.scope != nil {
			r.scope.SharedPages.Add(uint64(len(lw.pages)))
		}
	}

	r.computeChildCandidates(0)
	r.dispatchInternal(lw)
	var err error
	if r.k > 1 {
		err = r.processLevel(1)
	}
	// Internal tasks still reference lw; they must finish before the sweep
	// releases the window's pins.
	r.workers.drain()
	r.winData[0] = nil
	r.unloadWindow(lw)
	if err != nil {
		return err
	}
	r.settleWindowCounts(lw)
	r.clearChildCandidates(0)
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_close", Level: 1, Window: ord,
			DurUS: time.Since(windowStart).Microseconds(),
			Span:  r.winSpan[0], Parent: r.levelSpan[0]})
	}
	if err := r.firstErr(); err != nil {
		return err
	}
	rd.processed++
	if lo == rd.frontier {
		// The settled prefix [0, Hi) is exactly what an uninterrupted pass
		// would have completed: the frontier is a valid resume cursor.
		rd.frontier = b.Hi
		r.emitCheckpoint(b.Hi)
	} else {
		rd.frontier = -1
	}
	return nil
}

// Finish settles the rider into a Result. A shared rider's pool I/O deltas
// stay zero — physical reads are owned by the sweep; the rider's
// consumption is SharedPages. A solo run adds its pool delta itself.
func (rd *Rider) Finish() (*Result, error) {
	r := rd.r
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	if r.levelSpan[0] != 0 {
		r.emit(obs.Event{Event: "level_end", Level: 1, Span: r.levelSpan[0], Parent: r.querySpan,
			DurUS: time.Since(rd.startExec).Microseconds()})
	}
	total := r.internalCount.Load() + r.externalCount.Load()
	r.emit(obs.Event{Event: "run_end", Count: total, DurUS: time.Since(rd.startExec).Microseconds(),
		Span: r.querySpan, Parent: rd.rootSpan})
	var profile *obs.CostProfile
	if r.scope != nil {
		pr := r.scope.Profile()
		pr.PrepNS = r.p.PrepTime.Nanoseconds()
		pr.ExecNS = time.Since(rd.startExec).Nanoseconds()
		profile = &pr
	}
	return &Result{
		Count:           total,
		Internal:        r.internalCount.Load(),
		External:        r.externalCount.Load(),
		Plan:            r.p,
		PrepTime:        r.p.PrepTime,
		ExecTime:        time.Since(rd.startExec),
		Resumed:         rd.resumed,
		Level1Windows:   r.windowsPer[0],
		WindowsPerLevel: r.windowsPer,
		BufferFrames:    rd.frames,
		IOWait:          r.ioWait,
		WindowRetries:   r.windowRetries,
		Metrics:         rd.s.e.reg.Snapshot(),
		Profile:         profile,
	}, nil
}

// Close releases the rider's worker pool. Idempotent; call after Finish or
// after abandoning a failed rider.
func (rd *Rider) Close() {
	if rd.closed {
		return
	}
	rd.closed = true
	rd.r.workers.close()
}
