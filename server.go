package dualsim

import (
	"context"
	"io"
	"net/http"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/server"
)

// ErrEngineBusy is returned by Engine.Run/RunContext/Count when another run
// is already in flight on the same Engine. An Engine executes one run at a
// time; use one Engine per concurrent query (or a Server, which pools them).
var ErrEngineBusy = core.ErrEngineBusy

// ParseQuery resolves a query specification: a catalog name (q1..q5,
// triangle, house, ...) or an explicit edge list like "0-1,1-2,0-2". The
// CLI's -q flag and the Server's "query" field share this syntax.
func ParseQuery(spec string) (*Query, error) { return graph.ParseQuerySpec(spec) }

// ServerConfig sizes a Server. The zero value serves with conservative
// defaults (2 engines, queue of 4x the pool, 2s queue wait, 100k row cap).
type ServerConfig struct {
	// Engines is the pool size — the number of queries running concurrently.
	// The buffer budget in Engine (BufferFrames or BufferFraction) is the
	// GLOBAL budget for the machine, divided evenly across the pool.
	Engines int
	// QueueDepth bounds how many admitted requests may wait for an engine;
	// beyond it requests are rejected immediately with HTTP 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for an engine before
	// a 429; requests may ask for less via "queue_wait_ms".
	QueueWait time.Duration
	// RowLimit caps embeddings rows streamed per request; requests may ask
	// for less via "limit". Hitting the cap cancels the run.
	RowLimit int
	// PlanCacheSize bounds the canonical-form plan cache (LRU entries).
	PlanCacheSize int
	// ResumeTokenEvery controls resumable streaming: every Nth level-1
	// checkpoint is surfaced in the NDJSON stream as a {"resume_token"}
	// record a client can POST back (field "resume_token") to continue a
	// broken stream from the last completed window. Default 1 (every
	// checkpoint); negative suppresses the in-stream records (a token is
	// still attached to truncation trailers and error lines).
	ResumeTokenEvery int
	// Breaker tunes the per-pool circuit breaker. Run outcomes feed a
	// sliding window; past BreakerOpenRatio of faults the service rejects
	// fast with 429 + Retry-After until a half-open probe succeeds.
	BreakerWindow     int           // outcomes remembered (default 8)
	BreakerMinSamples int           // outcomes before the ratio applies (default 4)
	BreakerOpenRatio  float64       // reject-fast threshold (default 0.5)
	BreakerCooldown   time.Duration // open -> half-open delay (default 1s)
	// BreakerPinWait, when positive, also counts a successful run whose
	// buffer pin-wait exceeded this duration as a fault (pressure signal).
	BreakerPinWait time.Duration
	// TraceWriter, when non-nil, receives the service-wide JSONL span trace:
	// every request's query/plan spans plus the engine's run/level/window
	// spans, all carrying the request's trace ID (echoed to clients in the
	// X-Dualsim-Trace-Id header). The server buffers the trace and flushes
	// it on Drain and Close.
	TraceWriter io.Writer
	// SlowQueryThreshold gates the slow-query log's recent ring: completed
	// queries at or over this duration are recorded and surfaced at
	// GET /debug/slowlog (summary in GET /stats). Zero means the 500ms
	// default; negative records every query.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring (default 64); SlowLogTopK the
	// heaviest-by-pages-read leaderboard (default 8).
	SlowLogSize int
	SlowLogTopK int
	// ShareScan enables shared-scan execution: instead of "N small buffers"
	// (one engine per query, budget split N ways), compatible concurrent
	// queries board one cohort engine holding the UNDIVIDED global budget
	// and ride a single level-1 window sweep together — each window is read
	// once and evaluated against every rider's v-group forest. Resume
	// continuations ride like any other query; queries the cohort cannot
	// take (a live-ingest overlay, budgets too tight for a rider seat) fall
	// back to the solo pool transparently. Counts are bit-identical to solo
	// execution either way.
	ShareScan bool
	// CohortMaxRiders caps riders per shared sweep (default 4).
	CohortMaxRiders int
	// CohortFormationWait is how long a freshly formed cohort holds the
	// doors for more riders before sweeping (default 10ms; late arrivals
	// still board at the next window boundary).
	CohortFormationWait time.Duration
	// Mutable enables live ingest: POST /edges (single JSON object or an
	// NDJSON stream of {"op","u","v"} objects; one body = one atomic
	// batch) applies edge inserts/deletes to an in-memory delta overlay
	// that every subsequent query merges into its window loads. Each
	// applied batch advances the data epoch — reported by every query as
	// "data_epoch" — which invalidates outstanding resume tokens
	// (cross-epoch resumes get 409); cached plans read only the query and
	// stay valid.
	Mutable bool
	// CompactEvery is the overlay-op threshold that triggers a background
	// compaction: the overlay is folded into a fresh database file that
	// atomically replaces the live one (in-flight queries finish on the
	// old file), and the folded ops drain from the overlay. 0 disables
	// automatic compaction; POST /admin/compact folds on demand.
	CompactEvery int
	// CompactCompress stores compacted files delta-varint compressed.
	CompactCompress bool
	// Engine is the per-engine template. Buffer sizing is reinterpreted as
	// the global budget; Threads defaults to GOMAXPROCS divided across the
	// pool. MetricsAddr, TraceWriter and progress options are ignored here —
	// the Server serves /metrics itself, on its own mux.
	Engine Options
}

// Server is a long-lived query service over one opened database: a bounded
// pool of reusable engines behind admission control, a plan cache keyed by
// the canonical form of the query graph (isomorphic queries share one
// prepared plan), and an HTTP/JSON API:
//
//	POST /query    {"query":"q1","mode":"count"}            -> JSON result
//	POST /query    {"query":"0-1,1-2,0-2","mode":"embeddings"} -> NDJSON rows
//	POST /edges    {"op":"insert","u":3,"v":9} ...      (ServerConfig.Mutable)
//	POST /admin/compact  fold the overlay into a fresh file (Mutable)
//	GET  /stats    service and database snapshot (incl. slow-log summary)
//	GET  /metrics  Prometheus text format (plus /debug/vars, /debug/pprof)
//	GET  /debug/slowlog  slow-query ring + heaviest queries by pages read
//
// Every request is attributed: a trace ID minted at admission is echoed in
// the X-Dualsim-Trace-Id header and the response trailer, spans flow to
// ServerConfig.TraceWriter, and POST /query?profile=1 appends the query's
// attributed CostProfile to its reply.
//
// Saturation produces 429 with Retry-After. Stop with Drain (graceful:
// in-flight queries finish) or Close (abrupt: runs are cancelled).
type Server struct {
	srv *server.Server
}

// NewServer builds the service over the database. It does not bind a
// listener: call Listen, or mount Handler on a server of your own.
func (d *DB) NewServer(cfg ServerConfig) (*Server, error) {
	srv, err := server.New(d.db, server.Config{
		Engines:             cfg.Engines,
		QueueDepth:          cfg.QueueDepth,
		QueueWait:           cfg.QueueWait,
		RowLimit:            cfg.RowLimit,
		PlanCacheSize:       cfg.PlanCacheSize,
		ResumeTokenEvery:    cfg.ResumeTokenEvery,
		BreakerWindow:       cfg.BreakerWindow,
		BreakerMinSamples:   cfg.BreakerMinSamples,
		BreakerOpenRatio:    cfg.BreakerOpenRatio,
		BreakerCooldown:     cfg.BreakerCooldown,
		BreakerPinWait:      cfg.BreakerPinWait,
		TraceWriter:         cfg.TraceWriter,
		SlowQueryThreshold:  cfg.SlowQueryThreshold,
		SlowLogSize:         cfg.SlowLogSize,
		SlowLogTopK:         cfg.SlowLogTopK,
		ShareScan:           cfg.ShareScan,
		CohortMaxRiders:     cfg.CohortMaxRiders,
		CohortFormationWait: cfg.CohortFormationWait,
		Mutable:             cfg.Mutable,
		CompactEvery:        cfg.CompactEvery,
		CompactCompress:     cfg.CompactCompress,
		Engine:              cfg.Engine.coreOptions(),
	})
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// Handler returns the service's HTTP handler (POST /query, GET /stats,
// /metrics, /debug/vars, /debug/pprof/*).
func (s *Server) Handler() http.Handler { return s.srv.Handler() }

// Listen binds addr (":0" picks a free port; read it back with Addr) and
// serves in the background until Drain or Close.
func (s *Server) Listen(addr string) error { return s.srv.Listen(addr) }

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string { return s.srv.Addr() }

// Drain gracefully stops the service: new requests get 503, queued and
// in-flight requests run to completion, then engines close. If ctx expires
// first, remaining runs are cancelled cleanly and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error { return s.srv.Drain(ctx) }

// Close stops the service abruptly: in-flight runs are cancelled through
// their contexts, the listener closes, engines close.
func (s *Server) Close() error { return s.srv.Close() }
