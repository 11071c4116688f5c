// Package server is the long-lived query service over one opened database:
// a bounded pool of reusable engines sharing the global buffer budget
// (admission-controlled, with a bounded wait queue and 429-style rejection
// when saturated), a plan cache keyed by the canonical form of the query
// graph so repeated isomorphic queries skip preparation entirely, and an
// HTTP/JSON API (POST /query, GET /stats, plus the observability endpoints)
// with graceful drain.
//
// The shape follows the paper's cost model: DUALSIM's memory use is a fixed
// buffer budget regardless of the number of partial matches (PAPER.md §5),
// so a multi-tenant service on one machine divides that budget over a fixed
// number of engines instead of fanning out unboundedly; and preparation
// (plan.Prepare) is the per-query fixed cost the paper's Table 6 isolates,
// which the canonical-form cache amortizes across isomorphic requests.
package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/buildinfo"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/sharedscan"
	"dualsim/internal/storage"
)

// maxCanonicalVertices bounds plan-cache participation: the canonical-code
// search is degree-refined backtracking, fast for the paper-sized queries
// the planner accepts (K <= 10) but worst-case factorial; larger queries
// bypass the cache and pay Prepare per request.
const maxCanonicalVertices = 10

// Config sizes the service. The zero value serves with conservative
// defaults: 2 engines, a queue of 4x the pool, 2s queue wait, 100k rows.
type Config struct {
	// Engines is the pool size: the number of concurrently running queries.
	// The buffer budget in Engine (BufferFrames or BufferFraction) is the
	// GLOBAL budget, divided evenly across the pool, mirroring the paper's
	// fixed buffer budget for one machine.
	Engines int
	// QueueDepth bounds how many admitted requests may wait for an engine;
	// beyond it requests are rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for an engine before
	// a 429 (requests may ask for less via queue_wait_ms).
	QueueWait time.Duration
	// RowLimit caps embeddings rows streamed per request; requests may ask
	// for less via limit. Runs are cancelled once the cap is reached.
	RowLimit int
	// PlanCacheSize bounds the canonical-form plan cache (LRU entries).
	PlanCacheSize int
	// ResumeTokenEvery is the resume-token cadence of an embeddings
	// stream: a {"resume_token": ...} record is written after every N
	// completed level-1 windows (default 1; negative disables tokens).
	// Error lines and truncated trailers always carry the last token.
	ResumeTokenEvery int
	// BreakerWindow is how many settled run outcomes the pool circuit
	// breaker remembers (default 8).
	BreakerWindow int
	// BreakerMinSamples is how many outcomes must accumulate before the
	// open ratio applies (default 4).
	BreakerMinSamples int
	// BreakerOpenRatio is the fraction at which the breaker opens and the
	// service rejects fast with Retry-After (default 0.5).
	BreakerOpenRatio float64
	// BreakerCooldown is the open -> half-open delay; recovery then rides
	// on single probe requests (default 1s).
	BreakerCooldown time.Duration
	// BreakerPinWait, when positive, treats a successful run whose buffer
	// pin-wait exceeded it as breaker pressure (a fault outcome). Zero
	// disables the pin-wait input.
	BreakerPinWait time.Duration
	// SlowQueryThreshold is the duration (queue wait + run) at which a
	// completed query enters the slow-query ring (default 500ms; negative
	// records every query). The top-K-by-pages-read leaderboard is
	// independent of the threshold.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring (default 64).
	SlowLogSize int
	// SlowLogTopK bounds the pages-read leaderboard (default 8).
	SlowLogTopK int
	// TraceWriter, when non-nil, receives the JSONL span stream of every
	// request: query/plan spans emitted at admission plus the engine's
	// run/level/window spans, all stamped with the request's trace ID. The
	// server owns the tracer and flushes it on Drain and Close so the
	// final spans of in-flight queries are never lost. Ignored when
	// Engine.Tracer is set explicitly.
	TraceWriter io.Writer
	// ShareScan enables shared-scan multi-query execution: base-graph
	// queries (resume-token continuations included) become riders on one
	// cohort engine whose buffer is the FULL global budget, sharing a
	// single level-1 window sweep so N concurrent queries pay one sweep's
	// physical reads instead of N. Queries against a live-ingest overlay,
	// and riders bounced for a plan too deep for the rider frame share,
	// fall back to the solo pool. This is the cohort-vs-solo policy knob.
	ShareScan bool
	// CohortMaxRiders bounds how many queries ride one sweep concurrently
	// (default 4). Arrivals beyond it queue for the next window boundary.
	CohortMaxRiders int
	// CohortFormationWait delays a fresh sweep's first window so
	// near-simultaneous arrivals board together (default 10ms).
	CohortFormationWait time.Duration
	// Mutable enables live ingest: POST /edges applies edge inserts and
	// deletes to an in-memory delta overlay, every subsequent query merges
	// the overlay into its window loads, and each applied batch advances
	// the data epoch (invalidating outstanding resume tokens; cached plans
	// read only the query and stay valid). The base file on disk is
	// untouched until compaction.
	Mutable bool
	// CompactEvery, with Mutable, is the overlay-op threshold that kicks a
	// background compaction: the overlay is folded into a fresh database
	// file which atomically replaces the live one, engines are migrated,
	// and the folded ops drain from the overlay. 0 disables automatic
	// compaction (POST /admin/compact still triggers one on demand).
	// Compaction requires the base to be a *storage.DB.
	CompactEvery int
	// CompactCompress stores compacted files delta-varint compressed.
	CompactCompress bool
	// Engine is the per-engine template. Metrics, OnMatch and buffer sizing
	// are managed by the server (buffer fields are reinterpreted as the
	// global budget; Threads defaults to GOMAXPROCS/Engines).
	Engine core.Options
}

func (c Config) withDefaults() Config {
	if c.Engines <= 0 {
		c.Engines = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Engines
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RowLimit <= 0 {
		c.RowLimit = 100_000
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 64
	}
	if c.ResumeTokenEvery == 0 {
		c.ResumeTokenEvery = 1
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 8
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 4
	}
	if c.BreakerOpenRatio <= 0 {
		c.BreakerOpenRatio = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	} else if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
	if c.SlowLogTopK <= 0 {
		c.SlowLogTopK = 8
	}
	if c.CohortMaxRiders <= 0 {
		c.CohortMaxRiders = 4
	}
	if c.CohortFormationWait == 0 {
		c.CohortFormationWait = 10 * time.Millisecond
	} else if c.CohortFormationWait < 0 {
		c.CohortFormationWait = 0
	}
	if c.Engine.Threads <= 0 {
		c.Engine.Threads = runtime.GOMAXPROCS(0) / c.Engines
		if c.Engine.Threads < 1 {
			c.Engine.Threads = 1
		}
	}
	return c
}

// Server is the query service. Create with New, expose with Listen (or
// mount Handler yourself), stop with Drain (graceful) or Close (abrupt).
type Server struct {
	db  core.Database
	cfg Config
	reg *obs.Registry

	cache  *plan.Cache
	tokens *tokenCodec
	br     *breaker

	mu      sync.Mutex     // guards engines (recycling swaps entries) and retired
	engines []*core.Engine // all pool members, for metric aggregation
	// retired carries the final pool counters of engines that have left
	// engines (compaction, cohort rebuild, leak recycling, close), so the
	// aggregate pool counters never go backwards when a member is replaced.
	retired buffer.Stats
	slots   chan *core.Engine
	waiters atomic.Int64

	// Shared-scan cohort execution (nil unless Config.ShareScan): the
	// cohort engine holds the FULL global buffer budget and is listed in
	// engines (aggregate metrics, closeEngines) but never enters slots —
	// the scheduler owns it exclusively. Both fields are guarded by mu:
	// compaction retires them and installs replacements over the new file.
	sched          *sharedscan.Scheduler
	cohortEng      *core.Engine
	cohortInflight atomic.Int64

	// Live ingest (nil unless Config.Mutable): the delta overlay every
	// query snapshots at admission. stampMu orders on-disk epoch stamps
	// and plan-cache bumps so a later batch can never be overwritten by an
	// earlier one racing through the handler.
	store           *delta.Store
	stampMu         sync.Mutex
	opsSinceCompact atomic.Uint64
	compacting      atomic.Bool
	compactions     atomic.Uint64
	compactErrors   atomic.Uint64

	draining   atomic.Bool
	inflight   sync.WaitGroup
	baseCtx    context.Context // cancelled on Close / expired Drain: aborts runs
	baseCancel context.CancelFunc

	mux  *http.ServeMux
	hsrv *http.Server
	lis  net.Listener

	start   time.Time
	sm      *serverMetrics
	slowlog *obs.SlowLog
	// trc is the span sink shared by admission (query/plan spans) and the
	// engines (run/level/window spans); nil disables tracing.
	trc obs.Tracer
}

// New builds the service over db (any core.Database — *storage.DB in
// production, a faultdb wrapper in the chaos harness): the engine pool
// (dividing the configured buffer budget), the plan cache, the resume-token
// codec, the pool circuit breaker, the metric families, and the HTTP mux.
// It does not bind a listener; call Listen, or serve Handler yourself.
func New(db core.Database, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Engine.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tokens, err := newTokenCodec()
	if err != nil {
		return nil, err
	}
	if cfg.Engine.Tracer == nil && cfg.TraceWriter != nil {
		cfg.Engine.Tracer = obs.NewJSONLTracer(cfg.TraceWriter)
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		db:     db,
		cfg:    cfg,
		reg:    reg,
		cache:  plan.NewCache(cfg.PlanCacheSize),
		tokens: tokens,
		br: newBreaker(breakerConfig{
			window:     cfg.BreakerWindow,
			minSamples: cfg.BreakerMinSamples,
			openRatio:  cfg.BreakerOpenRatio,
			cooldown:   cfg.BreakerCooldown,
		}),
		slots:      make(chan *core.Engine, cfg.Engines),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		start:      time.Now(),
		slowlog:    obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogSize, cfg.SlowLogTopK),
		trc:        cfg.Engine.Tracer,
	}
	for i := 0; i < cfg.Engines; i++ {
		e, err := s.newEngine()
		if err != nil {
			baseCancel()
			s.closeEngines()
			return nil, fmt.Errorf("server: building engine %d/%d: %w", i+1, cfg.Engines, err)
		}
		s.engines = append(s.engines, e)
		s.slots <- e
	}
	if cfg.ShareScan {
		// The cohort engine is "one big buffer, N riders": the undivided
		// global budget and the full thread allowance, so a cohort has the
		// same resources N solo engines would have had combined.
		opts := cfg.Engine
		opts.Threads = cfg.Engine.Threads * cfg.Engines
		ce, err := s.newCoreEngine(db, opts)
		if err != nil {
			baseCancel()
			s.closeEngines()
			return nil, fmt.Errorf("server: building cohort engine: %w", err)
		}
		s.engines = append(s.engines, ce)
		s.cohortEng = ce
		s.sched = sharedscan.New(ce, sharedscan.Options{
			MaxRiders:     cfg.CohortMaxRiders,
			FormationWait: cfg.CohortFormationWait,
			Metrics:       reg,
		})
	}
	if cfg.Mutable {
		// The overlay's epoch continues the base file's: a freshly opened
		// file that has already absorbed (and compacted) mutations reports
		// its content epoch, and the first POST /edges advances from there.
		var epoch uint64
		if sdb, ok := db.(*storage.DB); ok {
			epoch = sdb.Epoch()
		}
		s.store = delta.NewStore(db.NumVertices(), epoch)
	}
	s.cache.Register(reg)
	s.sm = registerServerMetrics(reg, s)
	buildinfo.Register(reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	if cfg.Mutable {
		s.mux.HandleFunc("POST /edges", s.handleEdges)
		s.mux.HandleFunc("POST /admin/compact", s.handleCompact)
	}
	obs.Register(s.mux, reg)
	return s, nil
}

// newEngine builds one pool member with its share of the global budget,
// over the CURRENT database (compaction swaps s.db under mu).
func (s *Server) newEngine() (*core.Engine, error) {
	opts := s.cfg.Engine
	if opts.BufferFrames > 0 {
		opts.BufferFrames /= s.cfg.Engines
	} else if opts.BufferFraction > 0 {
		opts.BufferFraction /= float64(s.cfg.Engines)
	}
	return s.newCoreEngine(s.database(), opts)
}

// newCoreEngine builds an engine over db on the service registry.
// core.NewEngine points the buffer-pool metric families at the new
// engine's own pool, so the fleet-wide sums are registered again right
// after; a scrape landing between the two sees that one pool alone.
func (s *Server) newCoreEngine(db core.Database, opts core.Options) (*core.Engine, error) {
	opts.Metrics = s.reg
	opts.OnMatch = nil
	e, err := core.NewEngine(db, opts)
	if err != nil {
		return nil, err
	}
	s.registerAggregatePoolMetrics()
	return e, nil
}

// database returns the current base database. Stable for the life of the
// server unless compaction swaps in a freshly folded file.
func (s *Server) database() core.Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// scheduler returns the current shared-scan scheduler (nil without
// ShareScan). Compaction retires and replaces it, so callers capture it
// once per request rather than re-reading s.sched.
func (s *Server) scheduler() *sharedscan.Scheduler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched
}

// registerAggregatePoolMetrics re-registers the buffer-pool metric families
// to sum over every pool member, past and present. Each engine's
// registration points the func-backed families at its own pool (last
// writer wins); with several engines sharing one registry the service
// needs the fleet-wide view.
func (s *Server) registerAggregatePoolMetrics() {
	sum := func(f func(st buffer.Stats) uint64) func() uint64 {
		return func() uint64 { return f(s.poolTotals()) }
	}
	s.reg.CounterFunc("dualsim_pages_read_total", "pages physically read from the device (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.PhysicalReads }))
	s.reg.CounterFunc("dualsim_logical_reads_total", "buffer pin requests, hit or miss (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.LogicalReads }))
	s.reg.CounterFunc("dualsim_buffer_hits_total", "pin requests satisfied without I/O (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.Hits }))
	s.reg.CounterFunc("dualsim_buffer_evictions_total", "buffer frames recycled (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.Evictions }))
	s.reg.CounterFunc("dualsim_buffer_pin_wait_nanos_total", "time pinners blocked on in-flight loads (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.PinWaitNanos }))
	s.reg.CounterFunc("dualsim_coalesced_runs_total", "multi-page stretches served with one simulated seek (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.CoalescedRuns }))
	s.reg.CounterFunc("dualsim_coalesced_pages_total", "pages covered by coalesced run reads (all engines)",
		sum(func(st buffer.Stats) uint64 { return st.CoalescedPages }))
	s.reg.GaugeFunc("dualsim_buffer_hit_ratio", "buffer hits / logical reads (all engines)", func() float64 {
		st := s.poolTotals()
		if st.LogicalReads == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.LogicalReads)
	})
}

// poolTotals is the pool counters summed over the retired engines and
// every current member.
func (s *Server) poolTotals() buffer.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poolTotalsLocked()
}

func (s *Server) poolTotalsLocked() buffer.Stats {
	t := s.retired
	for _, e := range s.engines {
		t = addStats(t, e.PoolStats())
	}
	return t
}

// retireLocked folds e's pool counters into the retired base as e leaves
// engines. Caller holds s.mu.
func (s *Server) retireLocked(e *core.Engine) {
	s.retired = addStats(s.retired, e.PoolStats())
}

// addStats returns the field-wise sum a + b.
func addStats(a, b buffer.Stats) buffer.Stats {
	return buffer.Stats{
		LogicalReads:   a.LogicalReads + b.LogicalReads,
		PhysicalReads:  a.PhysicalReads + b.PhysicalReads,
		Hits:           a.Hits + b.Hits,
		Evictions:      a.Evictions + b.Evictions,
		PinWaitNanos:   a.PinWaitNanos + b.PinWaitNanos,
		CoalescedRuns:  a.CoalescedRuns + b.CoalescedRuns,
		CoalescedPages: a.CoalescedPages + b.CoalescedPages,
	}
}

// Handler returns the service's mux: POST /query, GET /stats, /metrics,
// /debug/vars, /debug/pprof/*.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the service's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Listen binds addr (":0" picks a free port; read it back with Addr) and
// serves in the background until Drain or Close.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.hsrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.hsrv.Serve(lis) }()
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Drain gracefully stops the service: new requests get 503, queued and
// in-flight requests run to completion, then engines close. If ctx expires
// first, remaining runs are cancelled through their contexts (pins
// released, engines left clean) and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // cancels every in-flight run's context
		<-done
		err = ctx.Err()
	}
	if s.hsrv != nil {
		// Handlers are done; this closes the listener and idle connections.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.hsrv.Shutdown(shutCtx)
	}
	s.baseCancel()
	s.closeSched()
	s.closeEngines()
	s.flushTracer()
	return err
}

// Close stops the service abruptly: in-flight runs are cancelled, the
// listener closes, engines close.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.baseCancel()
	if s.hsrv != nil {
		_ = s.hsrv.Close()
	}
	s.inflight.Wait()
	s.closeSched()
	s.closeEngines()
	s.flushTracer()
	return nil
}

// flushTracer pushes buffered span events to the trace sink — the last
// step of Drain/Close, after every in-flight run has emitted its final
// spans (Engine.Close also flushes, but a drained server may have already
// replaced or dropped engines).
func (s *Server) flushTracer() {
	if f, ok := s.trc.(obs.Flusher); ok {
		_ = f.Flush()
	}
}

// closeSched stops the cohort scheduler (no-op without ShareScan). Must
// run after the in-flight barrier and before closeEngines: sweeps hold
// buffer pins on the cohort engine until their riders detach.
func (s *Server) closeSched() {
	if sched := s.scheduler(); sched != nil {
		sched.Close()
	}
}

func (s *Server) closeEngines() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.engines {
		s.retireLocked(e)
		e.Close()
	}
	s.engines = nil
}

// planFor resolves q to an executable plan: canonicalize, consult the
// cache, Prepare on miss. It returns the plan, the permutation mapping q's
// vertices onto the plan's query (identity when the cache was bypassed),
// the stable plan key resume tokens are bound to, and whether the plan
// came from the cache.
func (s *Server) planFor(q *graph.Query) (*plan.Plan, []int, string, bool, error) {
	popts := plan.Options{CoverMode: s.cfg.Engine.CoverMode, WorstOrder: s.cfg.Engine.WorstOrder}
	if q.NumVertices() > maxCanonicalVertices {
		// Cache-bypassed queries still need a plan key for resume tokens;
		// the spec name plus planner knobs is stable across requests that
		// send the same query body.
		key := fmt.Sprintf("name:%s|k=%d|cover=%d|worst=%v", q.Name(), q.NumVertices(), popts.CoverMode, popts.WorstOrder)
		p, err := plan.Prepare(q, popts)
		return p, identityPerm(q.NumVertices()), key, false, err
	}
	code, canon, perm, err := graph.CanonicalQuery(q, q.Name())
	if err != nil {
		return nil, nil, "", false, err
	}
	key := fmt.Sprintf("%s|cover=%d|worst=%v", code, popts.CoverMode, popts.WorstOrder)
	// Prepare on the canonical representative, so every isomorphic query
	// maps onto the same plan and the same embedding remapping rule.
	// GetOrBuild collapses concurrent misses on one key into a single
	// Prepare (singleflight) — under shared-scan admission batches, N
	// arrivals of the same query cost one plan build, not N.
	p, built, err := s.cache.GetOrBuild(key, func() (*plan.Plan, error) {
		return plan.Prepare(canon, popts)
	})
	if err != nil {
		return nil, nil, "", false, err
	}
	return p, perm, key, !built, nil
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// errQueueFull distinguishes immediate saturation from queue-wait expiry.
var errQueueFull = fmt.Errorf("server: admission queue full")

// acquire admits the request to the engine pool: an idle engine if one is
// free, else a bounded wait governed by ctx. Returns errQueueFull when the
// queue bound is hit, ctx.Err() when the wait expires or the client leaves.
func (s *Server) acquire(ctx context.Context) (*core.Engine, error) {
	select {
	case e := <-s.slots:
		return e, nil
	default:
	}
	if int(s.waiters.Add(1)) > s.cfg.QueueDepth {
		s.waiters.Add(-1)
		s.sm.rejectedFull.Inc()
		return nil, errQueueFull
	}
	defer s.waiters.Add(-1)
	start := time.Now()
	select {
	case e := <-s.slots:
		s.sm.queueWaitUS.Observe(time.Since(start).Microseconds())
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns an engine to the pool. An engine that came back with
// pinned frames leaked a pin (a bug, or a run unwound abnormally); it is
// closed and replaced rather than recycled, so one bad run cannot shrink
// effective capacity for every later tenant.
func (s *Server) release(e *core.Engine) {
	if e.PinnedFrames() > 0 {
		s.sm.recycled.Inc()
		ne, err := s.newEngine()
		s.mu.Lock()
		for i, old := range s.engines {
			if old == e {
				s.retireLocked(e)
				if err == nil {
					s.engines[i] = ne
				} else {
					s.engines = append(s.engines[:i], s.engines[i+1:]...)
				}
				break
			}
		}
		s.mu.Unlock()
		e.Close()
		if err != nil {
			log.Printf("dualsim/server: replacing leaky engine failed, pool shrinks to %d: %v", len(s.slots), err)
			return
		}
		e = ne
	}
	s.slots <- e
}

// serverMetrics is the dualsim_server_* family.
type serverMetrics struct {
	requests        *obs.Counter
	rejectedFull    *obs.Counter
	rejectedWait    *obs.Counter
	active          *obs.Gauge
	queueWaitUS     *obs.Histogram
	rowsStreamed    *obs.Counter
	disconnects     *obs.Counter
	recycled        *obs.Counter
	breakerRejects  *obs.Counter
	resumesOK       *obs.Counter
	resumesRejected *obs.Counter
	cohortFallbacks *obs.Counter

	ingestBatches  *obs.Counter
	ingestOps      *obs.Counter
	ingestRejected *obs.Counter
	// resumesStale counts resume tokens rejected because the data epoch
	// advanced past the one the token was minted at. It is a subset of
	// resumesRejected, exported as the reason="stale_epoch" breakdown of
	// the dualsim_resumes_total family.
	resumesStale atomic.Uint64
}

func registerServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	sm := &serverMetrics{
		requests:     reg.Counter("dualsim_server_requests_total", "query requests received"),
		rejectedFull: reg.Counter("dualsim_server_rejected_queue_full_total", "requests rejected with 429 because the wait queue was full"),
		rejectedWait: reg.Counter("dualsim_server_rejected_deadline_total", "requests rejected with 429 because the queue wait deadline expired"),
		active:       reg.Gauge("dualsim_server_active_requests", "requests currently running on an engine"),
		queueWaitUS:  reg.Histogram("dualsim_server_queue_wait_us", "time admitted requests waited for an engine, microseconds"),
		rowsStreamed: reg.Counter("dualsim_server_rows_streamed_total", "embedding rows streamed to clients"),
		disconnects:  reg.Counter("dualsim_server_client_disconnects_total", "requests whose client vanished mid-stream (run cancelled)"),
		recycled:     reg.Counter("dualsim_server_engines_recycled_total", "pool engines replaced because a run leaked buffer pins"),

		breakerRejects:  reg.Counter("dualsim_server_breaker_rejected_total", "requests rejected fast with 429 by the open circuit breaker"),
		resumesOK:       reg.Counter("dualsim_resumes_ok_total", "resume tokens accepted and replayed"),
		resumesRejected: reg.Counter("dualsim_resumes_rejected_total", "resume tokens rejected (bad signature, wrong plan, stale checkpoint)"),
		cohortFallbacks: reg.Counter("dualsim_server_cohort_fallbacks_total", "cohort-routed queries bounced to a solo engine (rider not eligible)"),

		ingestBatches:  reg.Counter("dualsim_ingest_batches_total", "edge mutation batches applied to the delta overlay (each bumps the data epoch)"),
		ingestOps:      reg.Counter("dualsim_ingest_ops_total", "edge mutation ops applied (inserts + deletes)"),
		ingestRejected: reg.Counter("dualsim_ingest_rejected_total", "edge mutation batches rejected (malformed body or invalid endpoints)"),
	}
	reg.CounterFuncLabeled("dualsim_resumes_total",
		"resume attempts by outcome (ok + rejected)",
		[]obs.Label{{Key: "reason", Value: "stale_epoch"}}, sm.resumesStale.Load)
	reg.GaugeFunc("dualsim_data_epoch", "current data epoch (mutation batches applied over the base file's content)", func() float64 {
		return float64(s.dataEpoch())
	})
	reg.GaugeFunc("dualsim_delta_overlay_vertices", "vertices with pending overlay mutations awaiting compaction", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Snapshot().Len())
	})
	reg.CounterFunc("dualsim_compactions_total", "overlay compactions folded into a fresh base file and swapped live", s.compactions.Load)
	reg.CounterFunc("dualsim_compaction_errors_total", "overlay compactions that failed (overlay retained, base unchanged)", s.compactErrors.Load)
	reg.CounterFunc("dualsim_server_rejected_total", "requests rejected with 429 (queue full + deadline)", func() uint64 {
		return sm.rejectedFull.Value() + sm.rejectedWait.Value()
	})
	reg.CounterFunc("dualsim_resumes_total", "resume attempts by outcome (ok + rejected)", func() uint64 {
		return sm.resumesOK.Value() + sm.resumesRejected.Value()
	})
	reg.GaugeFunc("dualsim_breaker_state", "pool breaker state: 0 closed, 2 open, 3 half-open", func() float64 {
		st, _ := s.br.snapshot()
		return float64(st)
	})
	reg.CounterFunc("dualsim_breaker_trips_total", "times the pool breaker opened", func() uint64 {
		_, trips := s.br.snapshot()
		return trips
	})
	reg.GaugeFunc("dualsim_server_queue_depth", "requests waiting for an engine", func() float64 {
		return float64(s.waiters.Load())
	})
	reg.GaugeFunc("dualsim_server_engines_idle", "pool engines not running a query", func() float64 {
		return float64(len(s.slots))
	})
	reg.GaugeFunc("dualsim_server_draining", "1 while the server refuses new work", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("dualsim_slow_queries_total", "completed queries at/over the slow-query threshold", func() uint64 {
		_, slow := s.slowlog.Counts()
		return slow
	})
	return sm
}
