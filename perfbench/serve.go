package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/server"
	"dualsim/internal/storage"
)

// The serve workloads drive a real loopback server with two closed-loop
// clients: each sends its next request when the previous reply is read.
const (
	clients     = 2
	streamLimit = 1000
	batchOps    = 32
)

type opKind int

const (
	opCount opKind = iota
	opStream
	opIngest
)

// serveSpec is a workload run through server.New and HTTP.
type serveSpec struct {
	fix    fixture
	cfg    server.Config
	shapes []*graph.Query
	// Streams and edge batches per ten operations; the rest are counts.
	streams, ingests int
}

func runServeRW(o options, r *report) error {
	return runServe(o, r, serveSpec{
		fix: prefAttach,
		cfg: server.Config{Mutable: true, CompactEvery: 256,
			Engine: core.Options{BufferFraction: 0.15}},
		shapes:  mustQueries("q1", "q3", "q4"),
		streams: 1, ingests: 2,
	})
}

func runServeShared(o options, r *report) error {
	return runServe(o, r, serveSpec{
		fix:    sparseER,
		cfg:    server.Config{ShareScan: true, Engine: core.Options{BufferFraction: 0.5}},
		shapes: mustQueries("q1", "q3", "q4"),
	})
}

// served is one running server over a freshly built database.
type served struct {
	db   *storage.DB
	tdb  *timedDB // traced read-only phase only
	srv  *server.Server
	url  string
	http *http.Client
}

func startServed(dir string, seed int64, sp serveSpec, col *collector) (*served, time.Duration, error) {
	db, build, err := sp.fix.open(dir, seed)
	if err != nil {
		return nil, 0, err
	}
	s := &served{db: db, http: &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	var base core.Database = db
	cfg := sp.cfg
	if col != nil {
		cfg.Engine.Tracer = col
		// The storage decorator cannot sit under a mutable server:
		// compaction needs the *storage.DB itself.
		if !cfg.Mutable {
			s.tdb = &timedDB{DB: db}
			base = s.tdb
		}
	}
	if s.srv, err = server.New(base, cfg); err != nil {
		db.Close()
		return nil, 0, err
	}
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, 0, err
	}
	s.url = "http://" + s.srv.Addr()
	// Warm up: one count of each shape prepares and caches its plan.
	for _, q := range sp.shapes {
		var resp server.QueryResponse
		if err := s.post("/query", map[string]any{"query": shortName(q)}, &resp); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up %s: %w", q.Name(), err)
		}
	}
	return s, build, nil
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)
	s.http.CloseIdleConnections()
	s.db.Close()
}

// post sends a JSON body and decodes a 200 JSON reply into out.
func (s *served) post(path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.http.Post(s.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeReply(resp, out)
}

func decodeReply(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads /metrics into a map from series to value.
func (s *served) scrape() (map[string]float64, error) {
	resp, err := s.http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// settle waits until no background compaction is running.
func (s *served) settle() error {
	for i := 0; i < 600; i++ {
		resp, err := s.http.Get(s.url + "/stats")
		if err != nil {
			return err
		}
		var st struct {
			Ingest *struct {
				Compacting bool `json:"compacting"`
			} `json:"ingest"`
		}
		err = decodeReply(resp, &st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.Ingest == nil || !st.Ingest.Compacting {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("compaction did not finish")
}

// opResult is one client operation.
type opResult struct {
	kind   opKind
	shape  int          // index into serveSpec.shapes
	q      *graph.Query // the query as sent (catalog or relabelled)
	lat    time.Duration
	err    error
	reply  server.QueryResponse // count reply or stream trailer
	rows   []graph.VertexID     // streamed rows, flattened (q.NumVertices() each)
	ops    []delta.Op
	ingest server.IngestResponse
}

// servePhase runs the closed-loop clients for secs and returns every
// operation with the /metrics deltas over the phase.
type servePhase struct {
	ops     []opResult
	elapsed time.Duration
	delta   map[string]float64
	heapMB  float64
	cpu     time.Duration
}

func runClients(s *served, sp serveSpec, g *graph.Graph, seed int64, secs float64) (*servePhase, error) {
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	results := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
			for time.Now().Before(deadline) {
				for _, op := range sp.deck(rng) {
					if !time.Now().Before(deadline) {
						break
					}
					results[c] = append(results[c], s.do(op, sp, g, rng))
				}
			}
		}(c)
	}
	wg.Wait()
	ph := &servePhase{elapsed: time.Since(start), cpu: cpuTime() - cpu0, heapMB: heap.Stop()}
	for _, rs := range results {
		ph.ops = append(ph.ops, rs...)
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	ph.delta = map[string]float64{}
	for k, v := range after {
		ph.delta[k] = v - before[k]
	}
	return ph, nil
}

// deck deals one shuffled round of thirty operations: per ten,
// sp.streams streams and sp.ingests edge batches, the rest counts, with
// the query shapes dealt evenly. Dealing rounds instead of drawing each
// operation keeps the mix the same in every run.
func (sp serveSpec) deck(rng *rand.Rand) []opResult {
	var d []opResult
	shape := 0
	for i := 0; i < 30; i++ {
		op := opResult{kind: opCount}
		switch k := i % 10; {
		case k < sp.ingests:
			op.kind = opIngest
		case k < sp.ingests+sp.streams:
			op.kind = opStream
		}
		if op.kind != opIngest {
			op.shape = shape % len(sp.shapes)
			shape++
		}
		d = append(d, op)
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// do performs one dealt operation.
func (s *served) do(op opResult, sp serveSpec, g *graph.Graph, rng *rand.Rand) opResult {
	if op.kind == opIngest {
		op.ops = randomBatch(rng, g, batchOps)
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, o := range op.ops {
			kind := "delete"
			if o.Insert {
				kind = "insert"
			}
			_ = enc.Encode(server.EdgeOp{Op: kind, U: int64(o.U), V: int64(o.V)}) // writes to a bytes.Buffer
		}
		t0 := time.Now()
		resp, err := s.http.Post(s.url+"/edges", "application/x-ndjson", &body)
		if err == nil {
			err = decodeReply(resp, &op.ingest)
			resp.Body.Close()
		}
		op.lat, op.err = time.Since(t0), err
		return op
	}
	op.q = sp.shapes[op.shape]
	spec := shortName(op.q)
	if rng.Intn(2) == 0 {
		op.q = relabel(op.q, rng)
		spec = edgeSpec(op.q)
	}
	req := map[string]any{"query": spec}
	if op.kind == opStream {
		req["mode"] = "embeddings"
		req["limit"] = streamLimit
	}
	t0 := time.Now()
	if op.kind == opCount {
		op.err = s.post("/query?profile=1", req, &op.reply)
	} else {
		op.err = s.stream(req, &op)
	}
	op.lat = time.Since(t0)
	return op
}

// stream reads an NDJSON embeddings stream: rows, resume-token records
// and the trailer.
func (s *served) stream(req map[string]any, op *opResult) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := s.http.Post(s.url+"/query?profile=1", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeReply(resp, nil)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '[' {
			var row []graph.VertexID
			if err := json.Unmarshal(line, &row); err != nil {
				return err
			}
			if len(row) != op.q.NumVertices() {
				return fmt.Errorf("stream row %s has the wrong arity", line)
			}
			op.rows = append(op.rows, row...)
			continue
		}
		var rec struct {
			server.QueryResponse
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Error != "" {
			return fmt.Errorf("stream error: %s", rec.Error)
		}
		if rec.Done {
			op.reply = rec.QueryResponse
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a trailer")
}

func runServe(o options, r *report, sp serveSpec) error {
	s, err := repeatSetup(o, r, func(dir string) (*served, time.Duration, error) {
		return startServed(dir, o.seed, sp, nil)
	}, (*served).close)
	if err != nil {
		return err
	}
	g, err := s.db.LoadGraph()
	if err != nil {
		s.close()
		return err
	}
	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	plain, err := runClients(s, sp, g, o.seed, secs)
	s.close()
	if err != nil {
		return err
	}
	verifyServed(r, g, sp.shapes, plain.ops)
	plain.endToEnd(r, sp)
	if !o.trace {
		return nil
	}

	dir, err := os.MkdirTemp(o.work, "traced-")
	if err != nil {
		return err
	}
	col := newCollector()
	ts, _, err := startServed(dir, o.seed, sp, col)
	if err != nil {
		return err
	}
	if ts.tdb != nil {
		ts.tdb.reset()
	}
	col.reset()
	traced, err := runClients(ts, sp, g, o.seed, secs)
	if err != nil {
		ts.close()
		return err
	}
	verifyServed(r, g, sp.shapes, traced.ops)
	traced.layers(r, sp, ts.tdb, col)
	r.metrics["obs.trace_overhead"] = traced.perOp()/plain.perOp() - 1
	col.writeSpans()
	ts.close()

	var batches [][]delta.Op
	for _, op := range traced.ops {
		if op.kind == opIngest && op.err == nil {
			batches = append(batches, op.ops)
		}
	}
	rdir, err := os.MkdirTemp(o.work, "replay-")
	if err != nil {
		return err
	}
	db, _, err := sp.fix.open(rdir, o.seed)
	if err != nil {
		return err
	}
	defer db.Close()
	frac := sp.cfg.Engine.BufferFraction
	return replayLayers(o, r, db, sp.fix.compress, frac, batches)
}

func (ph *servePhase) queries() (counts, streams, ingests []opResult) {
	for _, op := range ph.ops {
		if op.err != nil {
			continue
		}
		switch op.kind {
		case opCount:
			counts = append(counts, op)
		case opStream:
			streams = append(streams, op)
		case opIngest:
			ingests = append(ingests, op)
		}
	}
	return
}

// poolTotals sums buffer activity over the phase's completed queries. A
// solo query's own cost profile (POST /query?profile=1) carries it, and
// survives compaction replacing the engines, which restarts the
// pool-backed families on /metrics. A cohort rider's profile carries none
// of it (the sweep is charged), so with shared scans on it comes from the
// /metrics deltas, which no compaction disturbs there.
func (ph *servePhase) poolTotals(shared bool, qs []opResult) (t obs.CostProfile) {
	if shared {
		d := ph.delta
		t.LogicalReads = uint64(d["dualsim_logical_reads_total"])
		t.PagesRead = uint64(d["dualsim_pages_read_total"])
		t.BufferHits = uint64(d["dualsim_buffer_hits_total"])
		t.PinWaitNS = int64(d["dualsim_buffer_pin_wait_nanos_total"])
		t.CoalescedRuns = uint64(d["dualsim_coalesced_runs_total"])
		t.CoalescedPages = uint64(d["dualsim_coalesced_pages_total"])
		return t
	}
	for _, op := range qs {
		p := op.reply.Profile
		if p == nil {
			continue
		}
		t.LogicalReads += p.LogicalReads
		t.PagesRead += p.PagesRead
		t.BufferHits += p.BufferHits
		t.PinWaitNS += p.PinWaitNS
		t.CoalescedRuns += p.CoalescedRuns
		t.CoalescedPages += p.CoalescedPages
	}
	return t
}

func (ph *servePhase) perOp() float64 { return seconds(ph.cpu) / float64(max(1, len(ph.ops))) }

func (ph *servePhase) endToEnd(r *report, sp serveSpec) {
	shapes := sp.shapes
	counts, streams, ingests := ph.queries()
	byShape := map[string][]float64{}
	var all []float64
	for _, op := range counts {
		n := shortName(shapes[op.shape])
		byShape[n] = append(byShape[n], seconds(op.lat))
		all = append(all, millis(op.lat))
	}
	for _, n := range []string{"q1", "q2", "q3", "q4", "q5"} {
		r.metrics["run_s."+n] = median(byShape[n])
	}
	r.metrics["count_ms.p50"] = median(all)
	r.metrics["count_ms.p95"] = quantile(all, 0.95)
	r.metrics["ops_per_s"] = float64(len(ph.ops)) / seconds(ph.elapsed)
	pt := ph.poolTotals(sp.cfg.ShareScan, append(counts, streams...))
	r.metrics["pages_per_query"] = ratio(float64(pt.LogicalReads), float64(len(counts)+len(streams)))
	r.metrics["heap_peak_mb"] = ph.heapMB
	r.metrics["cpu_ms_per_op"] = millis(ph.cpu) / float64(len(ph.ops))
	var streamMS, ingestMS []float64
	for _, op := range streams {
		streamMS = append(streamMS, millis(op.lat))
	}
	for _, op := range ingests {
		ingestMS = append(ingestMS, millis(op.lat))
	}
	r.metrics["stream_ms.p50"] = median(streamMS)
	r.metrics["ingest_ms.p50"] = median(ingestMS)
	r.metrics["ingest_ms.p90"] = quantile(ingestMS, 0.90)
}

func (ph *servePhase) layers(r *report, sp serveSpec, tdb *timedDB, col *collector) {
	counts, streams, ingests := ph.queries()
	d := ph.delta
	q := float64(len(counts) + len(streams))
	var queue, prep, exec, httpMS, overlay []float64
	var execSum float64
	for _, op := range counts {
		rp := op.reply
		queue = append(queue, float64(rp.QueueNS)/1e6)
		prep = append(prep, float64(rp.PrepNS)/1e6)
		exec = append(exec, float64(rp.ExecNS)/1e6)
		httpMS = append(httpMS, millis(op.lat)-float64(rp.QueueNS+rp.PrepNS+rp.ExecNS)/1e6)
		execSum += float64(rp.ExecNS) / 1e9
	}
	for _, op := range ingests {
		overlay = append(overlay, float64(op.ingest.DeltaVertices))
	}
	pr := ph.poolTotals(sp.cfg.ShareScan, append(counts, streams...))
	physical := float64(pr.PagesRead)
	if tdb != nil {
		r.metrics["storage.read_calls"] = ratio(float64(tdb.calls.Load()), q)
		r.metrics["storage.read_pages"] = ratio(float64(tdb.pages.Load()), q)
		r.metrics["storage.read_ms"] = ratio(float64(tdb.nanos.Load())/1e6, q)
	} else {
		// No decorator under a mutable server: only the page count is known.
		r.metrics["storage.read_calls"] = 0
		r.metrics["storage.read_pages"] = ratio(physical, q)
		r.metrics["storage.read_ms"] = 0
	}
	r.metrics["buffer.logical_reads"] = ratio(float64(pr.LogicalReads), q)
	r.metrics["buffer.physical_reads"] = ratio(physical, q)
	r.metrics["buffer.hit_ratio"] = ratio(float64(pr.BufferHits), float64(pr.LogicalReads))
	r.metrics["buffer.evictions"] = ratio(d["dualsim_buffer_evictions_total"], q)
	r.metrics["buffer.pin_wait_ms"] = ratio(float64(pr.PinWaitNS)/1e6, q)
	r.metrics["buffer.pages_per_coalesced_run"] = ratio(float64(pr.CoalescedPages), float64(pr.CoalescedRuns))
	hits, misses := d["dualsim_plan_cache_hits_total"], d["dualsim_plan_cache_misses_total"]
	r.metrics["plan.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.metrics["plan.cache_evictions"] = d["dualsim_plan_cache_evictions_total"]
	engineCounterMetrics(r, d, q, execSum)
	col.windowMetrics(r, q)
	r.metrics["core.window_wait_ms"] = ratio(d["dualsim_io_wait_nanos_total"]/1e6, q)
	r.metrics["core.prep_us"] = ratio(sum(prep)*1e3, float64(len(prep)))
	// Engines are the server's, and streams end mid-run: no harness span
	// brackets a run, so the run and engine-open spans are library-only.
	r.metrics["core.run_self_ms"] = 0
	r.metrics["core.engine_open_ms"] = 0
	r.metrics["delta.overlay_vertices"] = median(overlay)
	r.metrics["sharedscan.riders_per_sweep"] = ratio(d["dualsim_cohort_riders_total"], d["dualsim_cohort_sweeps_total"])
	r.metrics["sharedscan.shared_page_ratio"] = ratio(d["dualsim_shared_pages_total"], d["dualsim_sweep_pages_read_total"])
	r.metrics["sharedscan.fallbacks"] = d["dualsim_server_cohort_fallbacks_total"]
	r.metrics["server.queue_ms"] = median(queue)
	r.metrics["server.prep_ms"] = median(prep)
	r.metrics["server.exec_ms"] = median(exec)
	r.metrics["server.http_ms"] = median(httpMS)
	r.metrics["server.rejected"] = d["dualsim_server_rejected_total"]
	r.metrics["server.rows_streamed"] = d["dualsim_server_rows_streamed_total"]
	r.metrics["server.compactions"] = d["dualsim_compactions_total"]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// shortName is the catalog name (q1..q5) the server resolves.
func shortName(q *graph.Query) string {
	for i, c := range graph.PaperQueries() {
		if c.Name() == q.Name() {
			return fmt.Sprintf("q%d", i+1)
		}
	}
	return q.Name()
}

// edgeSpec writes q as the server's edge-list syntax, e.g. "0-1,1-2,0-2".
func edgeSpec(q *graph.Query) string {
	parts := make([]string, 0, q.NumEdges())
	for _, e := range q.Edges() {
		parts = append(parts, fmt.Sprintf("%d-%d", e[0], e[1]))
	}
	return strings.Join(parts, ",")
}
