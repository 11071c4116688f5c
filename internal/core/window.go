package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// levelWindow is the currently loaded merged vertex/page window at a level.
type levelWindow struct {
	// verts[g] is group g's current vertex window (sorted): the slice of
	// its candidate sequence falling inside the merged window.
	verts [][]graph.VertexID
	// adj maps each window vertex to its full adjacency list (sublists
	// merged). Read-only once built. Last-level windows leave lazily
	// parsed compressed records out of this map — they live in comp.
	adj map[graph.VertexID][]graph.VertexID
	// comp maps last-level window vertices whose records arrived as
	// zero-copy compressed spans (lazy parse) to those spans: the
	// compressed-domain kernels consume them in place, decoding at most
	// the candidates that survive intersection. Nil for non-last levels
	// (and under Options.EagerDecode), where adj holds everything
	// decoded. The spans alias pinned frame buffers — valid exactly as
	// long as the window's pins, like adj itself.
	comp map[graph.VertexID]graph.CompressedAdj
	// lo..hi is the merged window's vertex ID range.
	lo, hi graph.VertexID
	// pages are the pages the window needs (path-pin accounting covers all
	// of them); pinned records the subset whose loads succeeded and that
	// therefore hold a buffer pin to release.
	pages  []storage.PageID
	pinned map[storage.PageID]bool
	// loaded pages by ID for the last-level split-vertex pass.
	loadedPages map[storage.PageID]*storage.Page
	// sealed is set (with release semantics) once every page load completed
	// and split records were merged: from then on adj is read-only. Until
	// then adj is concurrently written by load callbacks, and last-level
	// page tasks already running must restrict themselves to their own
	// page's records (matcher.pageAdj) instead of reading adj.
	sealed atomic.Bool

	// internal/external accumulate the embeddings found by tasks attached
	// to this window. Keeping counts window-local until the window
	// completes makes whole-window retry idempotent: a failed attempt's
	// partial counts are simply never merged into the run totals
	// (settleWindowCounts), so re-dispatching the window cannot double
	// count.
	internal atomic.Uint64
	external atomic.Uint64
}

// processLevel drives the merged-window iteration at deep level l >= 1
// (Algorithm 2; level 1 is the sweep's, see Rider.ProcessWindow). Windows
// at level l nest inside the current windows of all earlier levels.
func (r *run) processLevel(l int) error {
	iter := windowIterator{r: r, level: l, merged: r.mergedCandidates(l)}
	// Settle the level's speculative reads on every exit path (error,
	// cancellation, level exhausted): leftover pins must be released before
	// the caller unloads outer windows or the run returns.
	defer r.settlePrefetch(l)
	// Attributed runs trace each processLevel invocation as a level span
	// nested under the enclosing window.
	if lvlSpan := r.span(); lvlSpan != 0 {
		parent := r.winSpan[l-1]
		r.levelSpan[l] = lvlSpan
		levelStart := time.Now()
		r.emit(obs.Event{Event: "level_start", Level: l + 1, Span: lvlSpan, Parent: parent})
		defer func() {
			r.emit(obs.Event{Event: "level_end", Level: l + 1, Span: lvlSpan, Parent: parent,
				DurUS: time.Since(levelStart).Microseconds()})
		}()
	}
	lastLevel := l == r.k-1
	for iter.next() {
		// Cancellation gate: every window iteration at every level checks
		// the run's context, so a cancel stops the traversal within one
		// window regardless of depth.
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return err
		}
		if err := r.firstErr(); err != nil {
			return err
		}
		verts := iter.windowVerts()
		ord := r.windowsPer[l] + 1 // 1-based window ordinal at this level
		windowStart := time.Now()
		r.winSpan[l] = r.span()
		if r.tracer != nil {
			ev := obs.Event{Event: "window_open", Level: l + 1, Window: ord, Verts: len(verts),
				Span: r.winSpan[l], Parent: r.levelSpan[l]}
			if len(verts) > 0 {
				ev.Lo, ev.Hi = uint64(verts[0]), uint64(verts[len(verts)-1])
			}
			r.emit(ev)
		}
		lw, err := r.loadWindowWithRetry(l, verts, lastLevel, ord)
		if err != nil {
			return err
		}
		r.winData[l] = lw
		// Speculate on the level's next window while this one is enumerated:
		// its page set is computable from the iterator without loading.
		r.startPrefetch(l, &iter, lw)
		r.windowsPer[l]++
		r.em.windows.Inc()
		if r.scope != nil {
			r.scope.Windows.Add(1)
		}

		if lastLevel {
			// Matching already dispatched page-by-page as reads completed
			// (loadWindow); handle split vertices.
			r.dispatchSplitVertices(lw)
			drainStart := time.Now()
			r.workers.drain()
			if r.tracer != nil {
				r.emit(obs.Event{Event: "external_enum", Level: l + 1, Window: ord,
					Verts: len(verts), DurUS: time.Since(drainStart).Microseconds(),
					Span: r.winSpan[l]})
			}
			r.settleWindowCounts(lw)
		} else {
			r.computeChildCandidates(l)
			if err := r.processLevel(l + 1); err != nil {
				r.unloadWindow(lw)
				return err
			}
			r.clearChildCandidates(l)
		}
		r.unloadWindow(lw)
		if r.tracer != nil {
			r.emit(obs.Event{Event: "window_close", Level: l + 1, Window: ord,
				DurUS: time.Since(windowStart).Microseconds(),
				Span:  r.winSpan[l], Parent: r.levelSpan[l]})
		}
		if err := r.firstErr(); err != nil {
			return err
		}
	}
	r.winData[l] = nil
	return nil
}

// settleWindowCounts merges a completed window's task-local counts into the
// run totals and the engine's cumulative metrics. Counts of a window that
// failed (and is being retried or abandoned) are never settled — that is
// the idempotence contract of loadWindowWithRetry.
func (r *run) settleWindowCounts(lw *levelWindow) {
	if n := lw.internal.Swap(0); n > 0 {
		r.internalCount.Add(n)
		r.em.embInternal.Add(n)
		if r.scope != nil {
			r.scope.EmbInternal.Add(n)
		}
	}
	if n := lw.external.Swap(0); n > 0 {
		r.externalCount.Add(n)
		r.em.embExternal.Add(n)
		if r.scope != nil {
			r.scope.EmbExternal.Add(n)
		}
	}
}

// emitCheckpoint delivers the current frontier to the run's checkpoint
// callback (orchestrator goroutine only; cursor is the level-1 candidate
// index the next window starts at).
func (r *run) emitCheckpoint(cursor int) {
	if r.onCheckpoint == nil {
		return
	}
	r.em.checkpoints.Inc()
	if r.scope != nil {
		r.scope.Checkpoints.Add(1)
	}
	r.onCheckpoint(Checkpoint{
		K:        r.k,
		Cursor:   cursor,
		Windows:  r.windowsPer[0],
		Internal: r.internalCount.Load(),
		External: r.externalCount.Load(),
	})
}

// mergedCandidates returns the merged candidate vertex sequence for level l:
// the sorted union of every group's candidate sequence.
func (r *run) mergedCandidates(l int) []graph.VertexID {
	var lists [][]graph.VertexID
	for g := range r.cand {
		c := r.cand[g][l]
		if c.full {
			return r.e.all
		}
		if len(c.list) > 0 {
			lists = append(lists, c.list)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	return unionSorted(lists)
}

// unionSorted merges k sorted candidate lists into one sorted deduplicated
// list by balanced pairwise rounds (a merge tree): each element moves
// through O(log k) two-way merges instead of being compared against every
// list head per output element as in the seed's linear best-of-k scan —
// O(n log k) total versus O(n·k). The inputs are not modified, and the
// result never aliases any input's backing array — overlay-merged lists
// feed this merge and are retained read-only by the window, so an aliased
// result could be mutated behind the window's back by a caller appending
// to it. Empty inputs (a fully-tombstoned overlay list among them) are
// skipped up front; all-empty input yields nil.
func unionSorted(lists [][]graph.VertexID) []graph.VertexID {
	// Drop empty lists first: the merge tree below would carry an empty
	// operand through every round, and a single surviving list must still
	// be copied (not returned) to keep the no-aliasing contract.
	nonEmpty := lists[:0:0]
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		return append([]graph.VertexID(nil), nonEmpty[0]...)
	}
	work := make([][]graph.VertexID, len(nonEmpty))
	copy(work, nonEmpty)
	for len(work) > 1 {
		next := work[: 0 : (len(work)+1)/2]
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, mergeUnion2(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			// The odd tail rides to the next round unmerged. It can never
			// become the result directly: rounds shrink n to ceil(n/2), so
			// from n >= 2 the final round always has exactly two operands
			// and ends in a fresh mergeUnion2 allocation.
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// mergeUnion2 merges two sorted lists, dropping duplicates (within and
// across inputs). The result is freshly allocated; a and b are read-only.
func mergeUnion2(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v graph.VertexID
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// windowIterator chops a merged candidate sequence into consecutive windows
// whose un-pinned page footprint fits the level's frame budget. Pages
// already pinned by outer windows do not consume budget, so windows are
// variably sized, exactly as in Section 5.1.
type windowIterator struct {
	r      *run
	level  int
	merged []graph.VertexID
	start  int
	curLo  int
	curHi  int // window is merged[curLo:curHi]
}

func (it *windowIterator) next() bool {
	if it.start >= len(it.merged) {
		return false
	}
	r := it.r
	budget := r.winBudget[it.level]
	newPages := make(map[storage.PageID]bool)
	i := it.start
	for i < len(it.merged) {
		v := it.merged[i]
		first, last := r.e.db.SpanOf(v)
		// Count pages this vertex adds beyond the path-pinned set and the
		// window's own set.
		added := 0
		for p := first; p <= last; p++ {
			if r.pathPinned[p] == 0 && !newPages[p] {
				added++
			}
		}
		if len(newPages)+added > budget {
			if i == it.start {
				r.fail(fmt.Errorf("core: vertex %d spans %d pages, exceeding the %d-frame budget of level %d; increase the buffer size",
					v, last-first+1, budget, it.level+1))
				return false
			}
			break
		}
		for p := first; p <= last; p++ {
			if r.pathPinned[p] == 0 {
				newPages[p] = true
			}
		}
		i++
	}
	it.curLo, it.curHi = it.start, i
	it.start = i
	return true
}

func (it *windowIterator) windowVerts() []graph.VertexID {
	return it.merged[it.curLo:it.curHi]
}

// peekNextPages predicts the page set of the level's next window without
// advancing the iterator: it replays next()'s budget walk from the current
// position, treating the current window's own path pins (cur) as already
// released — they will be by the time the next window loads. Only pages
// that will actually need a read are returned (pages held by outer-level
// windows stay resident), ascending, truncated to max. Returns nil when
// the level is exhausted.
func (it *windowIterator) peekNextPages(cur *levelWindow, max int) []storage.PageID {
	if it.start >= len(it.merged) || max <= 0 {
		return nil
	}
	r := it.r
	budget := r.winBudget[it.level]
	curSet := make(map[storage.PageID]bool, len(cur.pages))
	for _, p := range cur.pages {
		curSet[p] = true
	}
	// effective path-pin count once the current window unloads
	free := func(p storage.PageID) bool {
		n := r.pathPinned[p]
		if curSet[p] {
			n--
		}
		return n == 0
	}
	newPages := make(map[storage.PageID]bool)
	var pages []storage.PageID
	for i := it.start; i < len(it.merged); i++ {
		first, last := r.e.db.SpanOf(it.merged[i])
		added := 0
		for p := first; p <= last; p++ {
			if free(p) && !newPages[p] {
				added++
			}
		}
		if len(newPages)+added > budget {
			break
		}
		for p := first; p <= last; p++ {
			if free(p) && !newPages[p] {
				newPages[p] = true
				pages = append(pages, p)
			}
		}
	}
	slices.Sort(pages)
	if len(pages) > max {
		pages = pages[:max]
	}
	return pages
}

// startPrefetch begins the level's speculative round for the window after
// lw, if the level has a prefetcher and the iterator has more vertices.
// The round covers the leading pages of the next window's predicted page
// set, clipped to the carved budget — the prefetcher pins what it loads so
// the speculation survives the last level's eviction churn until the
// window transition collects it.
func (r *run) startPrefetch(l int, it *windowIterator, lw *levelWindow) {
	if r.prefetch == nil || r.prefetch[l] == nil {
		return
	}
	pf := r.prefetch[l]
	issuePrefetch(r.ctx, pf, it.peekNextPages(lw, pf.Budget()), r.em, r.scope)
}

// settlePrefetch cancels and releases whatever the level's prefetcher still
// holds, counting it all as wasted (the window-skip / error-exit path).
func (r *run) settlePrefetch(l int) {
	if r.prefetch != nil {
		collectPrefetch(r.prefetch[l], nil, r.em, r.scope)
	}
}

// issuePrefetch starts pf's speculative round over pids and counts it.
func issuePrefetch(ctx context.Context, pf *buffer.Prefetcher, pids []storage.PageID, em *engineMetrics, scope *obs.Scope) {
	if len(pids) == 0 {
		return
	}
	n := pf.Start(ctx, pids)
	em.prefetchIssued.Add(uint64(n))
	if scope != nil && n > 0 {
		scope.PrefetchIssued.Add(uint64(n))
	}
}

// collectPrefetch settles pf's speculative round (nil pf: no-op), releasing
// its pins: pages want reports as needed count as useful, the rest (all of
// them for a nil want) as wasted.
func collectPrefetch(pf *buffer.Prefetcher, want func(storage.PageID) bool, em *engineMetrics, scope *obs.Scope) {
	if pf == nil {
		return
	}
	useful, wasted := pf.Collect(want)
	if useful > 0 {
		em.prefetchUseful.Add(uint64(useful))
		if scope != nil {
			scope.PrefetchUseful.Add(uint64(useful))
		}
	}
	if wasted > 0 {
		em.prefetchWasted.Add(uint64(wasted))
		if scope != nil {
			scope.PrefetchWasted.Add(uint64(wasted))
		}
	}
}

// loadWindowWithRetry is loadWindow plus whole-window recovery: a transient
// fault that survived the read-level retry budget drains the window's
// already-dispatched tasks, discards its pins and partial counts, clears
// the run error it caused, backs off (exponentially, bounded, observing the
// run context), and reloads the same window — up to Options.WindowRetries
// times. Retries are cheap on the I/O side: pages whose loads succeeded
// before the fault are still resident in the buffer pool, so a retry
// re-reads only the pages that actually failed. Permanent errors
// (corruption, cancellation, budget misfits) are returned immediately.
func (r *run) loadWindowWithRetry(l int, verts []graph.VertexID, lastLevel bool, ord int) (*levelWindow, error) {
	for attempt := 0; ; attempt++ {
		lw, err := r.loadWindow(l, verts, lastLevel)
		if err == nil {
			return lw, nil
		}
		// The failed attempt's tasks may still be running against lw; they
		// must finish before the pins are released and the counts dropped.
		if lastLevel {
			r.workers.drain()
		}
		r.unloadWindow(lw)
		lw.internal.Store(0)
		lw.external.Store(0)
		if attempt >= r.e.opts.WindowRetries || !storage.IsTransient(err) || r.ctx.Err() != nil {
			return nil, err
		}
		// Absorb exactly the failure this attempt caused; a different error
		// that landed concurrently (cancellation, a corrupt page on another
		// path) survives and fails the run on the next gate.
		box := r.err.Load()
		if box == nil || box.err != err || !r.absorbErr(box) {
			return nil, err
		}
		r.windowRetries++
		r.em.windowRetries.Inc()
		if r.scope != nil {
			r.scope.WindowRetries.Add(1)
		}
		if r.tracer != nil {
			r.emit(obs.Event{Event: "window_retry", Level: l + 1, Window: ord, Attempt: attempt + 1,
				Span: r.winSpan[l]})
		}
		if !sleepBackoff(r.ctx, r.e.opts, attempt) {
			r.fail(r.ctx.Err())
			return nil, r.ctx.Err()
		}
	}
}

// loadWindow pins every page needed by a deep-level window's vertices,
// builds the merged adjacency map, and splits the window per group. When
// lastLevel is set, complete records are dispatched to the matching
// workers as each page load completes, overlapping CPU with the remaining
// I/O. On error the window is returned alongside it still holding its pins
// — the caller (loadWindowWithRetry) drains in-flight tasks before
// unloading it.
func (r *run) loadWindow(l int, verts []graph.VertexID, lastLevel bool) (*levelWindow, error) {
	lw := newLevelWindow(r.e.db, verts, len(r.p.Groups), lastLevel)
	// Window membership per group: the intersection of the group's candidate
	// sequence with the merged window range, precomputed so last-level
	// callbacks can run before all pages land.
	for g := range r.p.Groups {
		lw.verts[g] = sliceRange(r.cand[g][l].slice(r.e.all), lw.lo, lw.hi)
	}
	for _, pid := range lw.pages {
		r.pathPinned[pid]++
	}
	// With a live-ingest overlay, pre-seal dispatch is off: a record's
	// on-disk adjacency may be stale, and the merged view exists only
	// after the overlay is applied under the seal. Page tasks are
	// dispatched post-seal instead — the overlap with I/O is lost for
	// mutated runs, the price of reading one consistent graph version.
	eager := lastLevel && r.overlay == nil
	var pf *buffer.Prefetcher
	if r.prefetch != nil {
		pf = r.prefetch[l]
	}
	wait, _ := r.e.fillWindow(r.ctx, lw, pf, r.scope, r.overlay, func(page *storage.Page, err error) {
		if err != nil {
			r.fail(err)
		} else if eager {
			// Overlap: match complete records while later pages load.
			r.workers.submit(func() { r.extMapPage(page, lw) })
		}
	})
	r.ioWait += wait
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_pinned", Level: l + 1, Window: r.windowsPer[l] + 1,
			Pages: len(lw.pages), DurUS: wait.Microseconds(), Span: r.winSpan[l]})
	}
	// Read errors reached the run through the callback; a different failure
	// that landed meanwhile fails this window too.
	if err := r.firstErr(); err != nil {
		return lw, err
	}
	if lastLevel && r.overlay != nil {
		// The overlay suppressed pre-seal dispatch; match every page now
		// that adj is merged and sealed. Mutated vertices are rooted
		// separately (extMapPage skips them — their record adjacency is
		// stale), except split vertices, which dispatchSplitVertices roots
		// from the merged lw.adj like any other split record.
		for _, pid := range lw.pages {
			page := lw.loadedPages[pid]
			if page == nil {
				continue
			}
			r.workers.submit(func() { r.extMapPage(page, lw) })
		}
		r.dispatchOverlayVertices(lw)
	}
	return lw, nil
}

// newLevelWindow describes the window over verts (ascending): its vertex
// range, the ascending union of the vertices' page spans, and empty
// indexes, with room for groups per-group vertex windows. Last-level
// windows also index lazily parsed compressed records (comp).
func newLevelWindow(db Database, verts []graph.VertexID, groups int, lastLevel bool) *levelWindow {
	lw := &levelWindow{
		verts:       make([][]graph.VertexID, groups),
		adj:         make(map[graph.VertexID][]graph.VertexID),
		pinned:      make(map[storage.PageID]bool),
		loadedPages: make(map[storage.PageID]*storage.Page),
		pages:       spanPages(db, verts, nil),
	}
	if lastLevel {
		lw.comp = make(map[graph.VertexID]graph.CompressedAdj)
	}
	if len(verts) > 0 {
		lw.lo, lw.hi = verts[0], verts[len(verts)-1]
	}
	return lw
}

// spanPages returns the ascending union of the page spans of verts, minus
// the pages skip reports (nil skips none).
func spanPages(db Database, verts []graph.VertexID, skip func(storage.PageID) bool) []storage.PageID {
	var pages []storage.PageID
	seen := make(map[storage.PageID]bool)
	for _, v := range verts {
		first, last := db.SpanOf(v)
		for p := first; p <= last; p++ {
			if !seen[p] && (skip == nil || !skip(p)) {
				seen[p] = true
				pages = append(pages, p)
			}
		}
	}
	slices.Sort(pages)
	return pages
}

// fillWindow is the one window loader, shared by the sweep's level-1 loads
// and the deep levels: it settles the level's speculative round pf (nil:
// none), pins every page of lw issued as maximal ascending runs, indexes
// the loaded records into lw.adj (and lw.comp for last-level windows), and
// — once every read landed — merges split records, folds the overlay ov in
// (nil: the base graph) and seals the window. onPage, when non-nil, runs
// for every settled read (err set on failure) after the page is indexed.
// Returns the I/O wait and the first read error; a failed window comes
// back unsealed, still holding the pins of the pages that did load.
func (e *Engine) fillWindow(ctx context.Context, lw *levelWindow, pf *buffer.Prefetcher, scope *obs.Scope, ov *delta.Snapshot, onPage func(*storage.Page, error)) (time.Duration, error) {
	pages := lw.pages
	// Settle the level's speculative round before issuing this window's
	// reads: pages the prediction got right are still resident and turn the
	// reads below into buffer hits; the speculative pins are released first
	// so the pool's worst case stays within the level's allocation.
	collectPrefetch(pf, func(pid storage.PageID) bool {
		_, ok := slices.BinarySearch(pages, pid)
		return ok
	}, e.em, scope)

	keepCompressed := lw.comp != nil
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	cb := func(pid storage.PageID, page *storage.Page, err error) {
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			lw.pinned[pid] = true
			lw.loadedPages[pid] = page
			crecs, cbytes := indexPageRecords(page, lw.adj, lw.comp, keepCompressed)
			if crecs > 0 {
				e.em.compressedRecs.Add(crecs)
				e.em.compressedBytes.Add(cbytes)
			}
		}
		mu.Unlock()
		if onPage != nil {
			onPage(page, err)
		}
	}
	// Issue maximal contiguous runs: the pool serves each with one simulated
	// seek (one device request under a RunReader), delivering pages in order.
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		wg.Add(j - i)
		e.pool.AsyncReadRunContext(ctx, pages[i], j-i, &wg, cb)
		i = j
	}
	waitStart := time.Now()
	wg.Wait()
	wait := time.Since(waitStart)
	e.em.ioWaitNanos.Add(uint64(wait.Nanoseconds()))
	if scope != nil {
		scope.IOWaitNanos.Add(uint64(wait.Nanoseconds()))
	}
	e.em.windowLoadUS.Observe(wait.Microseconds())
	e.em.windowPages.Observe(int64(len(pages)))
	if firstErr != nil {
		return wait, firstErr
	}
	// Merge split adjacency lists (multi-page vertices) for window vertices.
	e.mergeSplitRecords(lw)
	// Fold the live-ingest overlay in: every mutated vertex indexed by this
	// window gets its merged (base ∪ adds) \ tombstones adjacency, at every
	// level — child candidates, internal enumeration, and descent-time
	// lookups all read lw.adj. Runs after mergeSplitRecords (whose degree
	// check is against the base directory) and before the seal.
	if n := applyOverlay(ov, lw); n > 0 {
		e.em.overlayVertices.Add(n)
	}
	// Seal: adj is complete and read-only from here on. Already-dispatched
	// page tasks that observed the window unsealed keep using their own
	// page's records; everything dispatched after this point reads adj.
	lw.sealed.Store(true)
	return wait, nil
}

// applyOverlay rewrites the adjacency index of every overlay-mutated vertex
// the window loaded and returns how many it merged: compressed spans of
// mutated vertices decode first (a compressed operand cannot represent the
// merged list), then the overlay applies. Vertices whose records live on
// the window's pages but outside the vertex window are merged too —
// descent-time lookups resolve any indexed vertex through lw.adj, and all
// of them must agree on the graph version. No-op for a nil overlay.
func applyOverlay(ov *delta.Snapshot, lw *levelWindow) uint64 {
	if ov == nil {
		return 0
	}
	merged := uint64(0)
	ov.Vertices(func(v graph.VertexID, _ *delta.VertexDelta) {
		base, ok := lw.adj[v]
		if !ok {
			if comp, cok := lw.comp[v]; cok {
				base = comp.AppendTo(nil)
				delete(lw.comp, v)
			} else {
				return // not indexed by this window
			}
		}
		lw.adj[v] = ov.Apply(v, base)
		merged++
	})
	return merged
}

// dispatchOverlayVertices roots last-level matching for overlay-mutated
// vertices with complete (single-page) records — extMapPage skipped them
// because their on-disk record is stale. Their merged adjacency comes from
// lw.adj; split mutated vertices are excluded (dispatchSplitVertices roots
// those from the same merged map).
func (r *run) dispatchOverlayVertices(lw *levelWindow) {
	rooted := make(map[graph.VertexID]bool)
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Continues || rec.Continuation || rooted[rec.Vertex] {
				continue
			}
			if r.overlay.Of(rec.Vertex) == nil {
				continue
			}
			v := rec.Vertex
			adj, ok := lw.adj[v]
			if !ok {
				continue
			}
			rooted[v] = true
			r.workers.submit(func() { r.extMapVertex(v, adj, lw) })
		}
	}
}

// indexPageRecords adds a loaded page's complete records to a window's
// adjacency index. Lazily parsed compressed records either keep their
// zero-copy span in comp (last-level windows, where the compressed-domain
// kernels consume them in place) or decode into a page-shared slab (every
// other level reads adj structurally: child candidates, internal
// enumeration, clipping). Returns the page's compressed record and payload
// byte counts for the window-load metrics; callers hold the window lock.
func indexPageRecords(page *storage.Page, adj map[graph.VertexID][]graph.VertexID, comp map[graph.VertexID]graph.CompressedAdj, keepCompressed bool) (crecs, cbytes uint64) {
	var slab []graph.VertexID
	if !keepCompressed {
		total := 0
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Adj == nil && rec.CompBytes > 0 && !rec.Continues && !rec.Continuation {
				total += rec.Comp.Count
			}
		}
		if total > 0 {
			slab = make([]graph.VertexID, 0, total)
		}
	}
	for i := range page.Records {
		rec := &page.Records[i]
		if rec.CompBytes > 0 {
			crecs++
			cbytes += uint64(rec.CompBytes)
		}
		if rec.Continues || rec.Continuation {
			continue // merged after the window loads (mergeSplitRecords)
		}
		if rec.Adj == nil && rec.CompBytes > 0 {
			if keepCompressed {
				comp[rec.Vertex] = rec.Comp
			} else {
				start := len(slab)
				slab = rec.Comp.AppendTo(slab)
				adj[rec.Vertex] = slab[start:len(slab):len(slab)]
			}
			continue
		}
		adj[rec.Vertex] = rec.Adj
	}
	return crecs, cbytes
}

// mergeSplitRecords assembles adjacency lists that span multiple pages into
// lw.adj. Window chopping keeps a vertex's span inside one window, so all
// chunks are present. Split chunks always decode — a multi-page list is
// reassembled by concatenation, which a compressed span cannot represent.
func (e *Engine) mergeSplitRecords(lw *levelWindow) {
	var split map[graph.VertexID][]graph.VertexID
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Continues || rec.Continuation {
				if split == nil {
					split = make(map[graph.VertexID][]graph.VertexID)
				}
				split[rec.Vertex] = appendRecord(split[rec.Vertex], rec)
			}
		}
	}
	for v, adj := range split {
		if len(adj) == e.db.Degree(v) {
			lw.adj[v] = adj
		}
		// Incomplete merges belong to vertices outside the window (their
		// remaining chunks live on unpinned pages); they are never matched.
	}
}

// appendRecord appends a record's adjacency entries to dst, decoding a
// lazily parsed compressed chunk in the process.
func appendRecord(dst []graph.VertexID, rec *storage.Record) []graph.VertexID {
	if rec.Adj == nil && rec.CompBytes > 0 {
		return rec.Comp.AppendTo(dst)
	}
	return append(dst, rec.Adj...)
}

// dispatchSplitVertices schedules last-level matching for vertices whose
// records span pages (excluded from the per-page fast path).
func (r *run) dispatchSplitVertices(lw *levelWindow) {
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for _, rec := range page.Records {
			if rec.Continues && !rec.Continuation {
				v := rec.Vertex
				adj, ok := lw.adj[v]
				if !ok {
					continue // outside the window
				}
				r.workers.submit(func() { r.extMapVertex(v, adj, lw) })
			}
		}
	}
}

// unloadWindow releases the window: path-pin accounting covers every page
// the window asked for, but only successfully loaded pages hold a buffer
// pin (loads can fail mid-window; a rider's view of a sweep window holds
// none — the sweep owns those pins).
func (r *run) unloadWindow(lw *levelWindow) {
	for _, pid := range lw.pages {
		r.pathPinned[pid]--
		if r.pathPinned[pid] == 0 {
			delete(r.pathPinned, pid)
		}
		if lw.pinned[pid] {
			r.e.pool.Unpin(pid)
		}
	}
	lw.pages = nil
	lw.pinned = nil
}

// computeChildCandidates fills cand[g][child] for every child of each
// group's node at level l from the group's current vertex window, applying
// the total-order pruning of Lemma 1: if the child's position follows
// (precedes) the parent's, only larger (smaller) neighbors qualify.
func (r *run) computeChildCandidates(l int) {
	lw := r.winData[l]
	for g, vg := range r.p.Groups {
		for _, childLevel := range vg.Forest.Children[l] {
			posParent := r.p.MatchingOrder[l]
			posChild := r.p.MatchingOrder[childLevel]
			var out []graph.VertexID
			for _, v := range lw.verts[g] {
				adj := lw.adj[v]
				i, found := slices.BinarySearch(adj, v)
				if posChild > posParent {
					if found {
						i++
					}
					out = append(out, adj[i:]...)
				} else {
					out = append(out, adj[:i]...)
				}
			}
			slices.Sort(out)
			out = dedupSorted(out)
			r.em.candSize.Observe(int64(len(out)))
			r.cand[g][childLevel] = candSeq{list: out}
		}
	}
}

// clearChildCandidates resets the candidate sequences computed by
// computeChildCandidates(l), freeing their memory between windows.
func (r *run) clearChildCandidates(l int) {
	for g, vg := range r.p.Groups {
		for _, childLevel := range vg.Forest.Children[l] {
			r.cand[g][childLevel] = candSeq{}
		}
	}
}

// dispatchInternal schedules internal subgraph enumeration over the level-0
// window, chunked so workers share it. With work-stealing enabled (the
// default) chunks are coarse — one per thread per group — because running
// tasks re-split whenever the queue drains; the static ablation reproduces
// the seed's fixed 4x-oversubscribed partitioning, which is the whole
// balancing story in that mode.
func (r *run) dispatchInternal(lw *levelWindow) {
	if r.tracer != nil {
		verts := 0
		for g := range r.p.Groups {
			verts += len(lw.verts[g])
		}
		r.emit(obs.Event{Event: "internal_enum", Level: 1, Window: r.windowsPer[0], Verts: verts,
			Span: r.winSpan[0]})
	}
	chunksPer := r.e.opts.Threads * 4
	if !r.e.opts.StaticPartition {
		chunksPer = r.e.opts.Threads
	}
	for g := range r.p.Groups {
		verts := lw.verts[g]
		if len(verts) == 0 {
			continue
		}
		chunks := chunksPer
		if chunks > len(verts) {
			chunks = len(verts)
		}
		size := (len(verts) + chunks - 1) / chunks
		for lo := 0; lo < len(verts); lo += size {
			hi := lo + size
			if hi > len(verts) {
				hi = len(verts)
			}
			g, lo, hi := g, lo, hi
			r.workers.submit(func() { r.internalEnumerate(g, verts[lo:hi], lw) })
		}
	}
}

// sliceRange returns the subslice of sorted duplicate-free list with values
// in [lo, hi] (empty when lo > hi). A bound that cuts nothing costs no
// search: the matchers call this once per intersection operand, and the
// order bounds often leave one end, or both, of a list in range.
func sliceRange(list []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	if len(list) > 0 && list[0] < lo {
		i, _ := slices.BinarySearch(list, lo)
		list = list[i:]
	}
	if len(list) > 0 && list[len(list)-1] > hi {
		j, found := slices.BinarySearch(list, hi)
		if found {
			j++
		}
		list = list[:j]
	}
	return list
}

func dedupSorted(list []graph.VertexID) []graph.VertexID {
	if len(list) < 2 {
		return list
	}
	out := list[:1]
	for _, v := range list[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
