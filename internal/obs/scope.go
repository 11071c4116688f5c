package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Scope is a per-query attribution sink. The engine installs one on itself
// and on its buffer pool for the duration of a run, and every hot-path
// counter increments both the process-global registry and the scope, so
// cost (pages read, I/O wait, kernel mix, ...) can be attributed to the
// query that incurred it rather than to the process.
//
// All fields are atomics: the buffer pool's I/O workers and the
// enumeration workers increment concurrently with the orchestrator. A nil
// *Scope means attribution is off; increment sites guard on nil, so the
// disabled path costs one pointer comparison (the ≤2%-overhead budget).
//
// The engine runs one query at a time and owns its pool exclusively, and
// all physical reads settle before a run returns; together these guarantee the sum of per-query attributed pages
// equals the global dualsim_pages_read_total delta exactly.
type Scope struct {
	traceID string
	spanSeq atomic.Uint64
	root    atomic.Uint64 // span the engine's run span parents on

	// Buffer-pool attribution (mirrors Pool.Stats counters).
	PagesRead      atomic.Uint64 // physical page reads
	LogicalReads   atomic.Uint64 // pin requests
	BufferHits     atomic.Uint64 // pins served from resident frames
	PinWaitNanos   atomic.Uint64 // time blocked waiting to pin
	CoalescedRuns  atomic.Uint64 // contiguous read stretches issued
	CoalescedPages atomic.Uint64 // pages covered by those stretches

	// Core enumeration attribution (mirrors engineMetrics counters).
	IOWaitNanos   atomic.Uint64 // orchestrator wait for window pins
	Windows       atomic.Uint64 // windows processed, all levels
	WindowsLevel1 atomic.Uint64 // level-1 (outermost) windows
	IntersectLin  atomic.Uint64 // linear-merge kernel invocations
	IntersectGal  atomic.Uint64 // galloping kernel invocations
	IntersectKWay atomic.Uint64 // k-way kernel invocations
	StealSplits   atomic.Uint64
	WindowRetries atomic.Uint64
	Checkpoints   atomic.Uint64
	EmbInternal   atomic.Uint64 // embeddings found in internal areas
	EmbExternal   atomic.Uint64 // embeddings found across windows

	// SharedPages counts pages of shared sweep windows this query consumed
	// as a cohort rider. The physical reads behind them are charged to the
	// sweep's scope (PagesRead here stays 0 for rider runs); the exactness
	// invariant becomes sum(per-query PagesRead) + sweep PagesRead = global
	// delta.
	SharedPages atomic.Uint64
}

// NewScope returns a scope for one query. traceID may be empty (CLI runs
// without tracing); the server mints one per request at HTTP admission.
func NewScope(traceID string) *Scope {
	return &Scope{traceID: traceID}
}

// TraceID returns the scope's trace ID ("" when unset).
func (s *Scope) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// NextSpanID mints the next span ID, unique within the scope's trace. The
// server uses it for the query and plan spans, the engine for level and
// window spans, so IDs never collide across the admission/run boundary.
func (s *Scope) NextSpanID() uint64 { return s.spanSeq.Add(1) }

// SetRootSpan records the span the engine's run span should parent on
// (the server's admission span). Zero — the default — makes the run span
// the root, which is what CLI runs want.
func (s *Scope) SetRootSpan(id uint64) { s.root.Store(id) }

// RootSpan returns the configured parent for the run span.
func (s *Scope) RootSpan() uint64 { return s.root.Load() }

// CostProfile is a point-in-time rendering of a Scope plus run timings —
// the structured body of the ?profile=1 trailer, Result.Profile, and the
// `dualsim run -profile` report. All quantities are attributed to one
// query. See docs/METRICS.md for the paper mapping of each counter.
type CostProfile struct {
	TraceID string `json:"trace_id,omitempty"`

	// Time breakdown (nanoseconds): where the request's wall clock went.
	QueueNS   int64 `json:"queue_ns,omitempty"` // admission queue (server only)
	PrepNS    int64 `json:"prep_ns,omitempty"`  // parse + plan
	ExecNS    int64 `json:"exec_ns"`            // enumeration, including I/O wait
	IOWaitNS  int64 `json:"io_wait_ns"`         // orchestrator blocked on window pins
	PinWaitNS int64 `json:"pin_wait_ns"`        // pin-level waits inside the pool

	// I/O cost — the paper's currency.
	PagesRead      uint64 `json:"pages_read"`
	LogicalReads   uint64 `json:"logical_reads"`
	BufferHits     uint64 `json:"buffer_hits"`
	CoalescedRuns  uint64 `json:"coalesced_runs,omitempty"`
	CoalescedPages uint64 `json:"coalesced_pages,omitempty"`

	// Window behaviour.
	Windows       uint64 `json:"windows"`
	WindowsLevel1 uint64 `json:"windows_level1"`

	// Enumeration kernel mix and resilience.
	IntersectLinear uint64 `json:"intersect_linear,omitempty"`
	IntersectGallop uint64 `json:"intersect_gallop,omitempty"`
	IntersectKWay   uint64 `json:"intersect_kway,omitempty"`
	StealSplits     uint64 `json:"steal_splits,omitempty"`
	WindowRetries   uint64 `json:"window_retries,omitempty"`
	Checkpoints     uint64 `json:"checkpoints,omitempty"`

	EmbInternal uint64 `json:"embeddings_internal"`
	EmbExternal uint64 `json:"embeddings_external"`

	// SharedPages is the shared-scan consumption of a cohort rider: pages
	// of sweep-loaded windows it evaluated without paying their physical
	// reads (those are the sweep's PagesRead).
	SharedPages uint64 `json:"shared_pages,omitempty"`
}

// Profile snapshots the scope's counters. The caller fills in the time
// breakdown it knows (queue wait at the server, prep/exec in the engine).
func (s *Scope) Profile() CostProfile {
	return CostProfile{
		TraceID:         s.traceID,
		IOWaitNS:        int64(s.IOWaitNanos.Load()),
		PinWaitNS:       int64(s.PinWaitNanos.Load()),
		PagesRead:       s.PagesRead.Load(),
		LogicalReads:    s.LogicalReads.Load(),
		BufferHits:      s.BufferHits.Load(),
		CoalescedRuns:   s.CoalescedRuns.Load(),
		CoalescedPages:  s.CoalescedPages.Load(),
		Windows:         s.Windows.Load(),
		WindowsLevel1:   s.WindowsLevel1.Load(),
		IntersectLinear: s.IntersectLin.Load(),
		IntersectGallop: s.IntersectGal.Load(),
		IntersectKWay:   s.IntersectKWay.Load(),
		StealSplits:     s.StealSplits.Load(),
		WindowRetries:   s.WindowRetries.Load(),
		Checkpoints:     s.Checkpoints.Load(),
		EmbInternal:     s.EmbInternal.Load(),
		EmbExternal:     s.EmbExternal.Load(),
		SharedPages:     s.SharedPages.Load(),
	}
}

// WriteReport renders the profile as a human-readable block — the
// `dualsim run -profile` output and the CLI twin of the ?profile=1
// trailer.
func (p *CostProfile) WriteReport(w io.Writer) {
	if p.TraceID != "" {
		fmt.Fprintf(w, "trace            %s\n", p.TraceID)
	}
	if p.QueueNS > 0 {
		fmt.Fprintf(w, "queue wait       %v\n", time.Duration(p.QueueNS))
	}
	fmt.Fprintf(w, "prep             %v\n", time.Duration(p.PrepNS))
	fmt.Fprintf(w, "exec             %v  (io wait %v, pin wait %v)\n",
		time.Duration(p.ExecNS), time.Duration(p.IOWaitNS), time.Duration(p.PinWaitNS))
	hitPct := 0.0
	if p.LogicalReads > 0 {
		hitPct = 100 * float64(p.BufferHits) / float64(p.LogicalReads)
	}
	fmt.Fprintf(w, "pages read       %d  (logical %d, hits %d = %.1f%%)\n",
		p.PagesRead, p.LogicalReads, p.BufferHits, hitPct)
	if p.SharedPages > 0 {
		fmt.Fprintf(w, "shared pages     %d  (sweep-owned reads)\n", p.SharedPages)
	}
	if p.CoalescedRuns > 0 {
		fmt.Fprintf(w, "coalesced runs   %d covering %d pages\n", p.CoalescedRuns, p.CoalescedPages)
	}
	fmt.Fprintf(w, "windows          %d  (level-1 %d)\n", p.Windows, p.WindowsLevel1)
	fmt.Fprintf(w, "kernel mix       linear %d, gallop %d, k-way %d  (steal splits %d)\n",
		p.IntersectLinear, p.IntersectGallop, p.IntersectKWay, p.StealSplits)
	if p.WindowRetries > 0 || p.Checkpoints > 0 {
		fmt.Fprintf(w, "resilience       window retries %d, checkpoints %d\n",
			p.WindowRetries, p.Checkpoints)
	}
	fmt.Fprintf(w, "embeddings       internal %d, external %d\n", p.EmbInternal, p.EmbExternal)
}
