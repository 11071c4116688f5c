package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/obs"
)

// postQueryProfile posts a query with ?profile=1.
func postQueryProfile(t *testing.T, addr string, req QueryRequest) (*http.Response, error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return http.Post("http://"+addr+"/query?profile=1", "application/json", bytes.NewReader(body))
}

// TestE2EAttributionPagesExact is the acceptance scenario for per-query
// attribution: 32 concurrent clients (count and streaming modes mixed,
// multiple windows per run) each ask for their cost profile, and the sum
// of attributed pages_read across the queries plus the shared sweep's own
// pages (zero without ShareScan) must equal the global
// dualsim_pages_read_total delta EXACTLY — every physical read belongs to
// exactly one owner. Run under -race in CI.
func TestE2EAttributionPagesExact(t *testing.T) {
	t.Run("solo", func(t *testing.T) { testAttributionPagesExact(t, false) })
	t.Run("shared", func(t *testing.T) { testAttributionPagesExact(t, true) })
}

func testAttributionPagesExact(t *testing.T, shareScan bool) {
	db := buildCompleteDB(t, 16, 256) // C(16,3) = 560 triangles
	s := newTestServer(t, db, Config{
		Engines:    4,
		QueueDepth: 32,
		QueueWait:  30 * time.Second,
		ShareScan:  shareScan,
		// Small global budget -> several windows per run, so attribution
		// covers window reloads, not just a one-shot scan.
		Engine: core.Options{Threads: 2, BufferFrames: 64},
	})

	before := metricValue(t, s.Addr(), "dualsim_pages_read_total")
	var sweepBefore uint64
	if shareScan {
		st := getStats(t, s.Addr())
		if !st.ShareScan || st.Cohort == nil {
			t.Fatalf("/stats missing cohort fields: share_scan=%v cohort=%v", st.ShareScan, st.Cohort)
		}
		sweepBefore = st.Cohort.SweepPagesRead
	}

	const clients = 32
	var wg sync.WaitGroup
	attributed := make([]uint64, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streaming := i%4 == 3 // a quarter of the load exercises the NDJSON path
			req := QueryRequest{Query: "q1"}
			if streaming {
				req.Mode = "embeddings"
			}
			resp, err := postQueryProfile(t, s.Addr(), req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			headerTrace := resp.Header.Get("X-Dualsim-Trace-Id")
			if headerTrace == "" {
				errs[i] = fmt.Errorf("client %d: no X-Dualsim-Trace-Id header", i)
				return
			}
			var qr QueryResponse
			if streaming {
				sr := readResumableStream(t, resp.Body)
				if !sr.done {
					errs[i] = fmt.Errorf("client %d: stream ended without trailer (%s)", i, sr.errMsg)
					return
				}
				qr = sr.trailer
			} else {
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					errs[i] = fmt.Errorf("client %d: %v", i, err)
					return
				}
			}
			if qr.Count != 560 {
				errs[i] = fmt.Errorf("client %d: count %d, want 560", i, qr.Count)
				return
			}
			if qr.TraceID != headerTrace {
				errs[i] = fmt.Errorf("client %d: trailer trace %q != header trace %q", i, qr.TraceID, headerTrace)
				return
			}
			if qr.Profile == nil {
				errs[i] = fmt.Errorf("client %d: ?profile=1 but no profile in response", i)
				return
			}
			if qr.Profile.TraceID != headerTrace {
				errs[i] = fmt.Errorf("client %d: profile trace %q != %q", i, qr.Profile.TraceID, headerTrace)
				return
			}
			// A warm buffer pool can serve a later client entirely from
			// cache (PagesRead == 0) — that IS correct attribution; what
			// must never be zero is the logical work. Cohort riders charge
			// logical reads to the sweep instead and report their window
			// consumption as shared_pages.
			if qr.Profile.Windows == 0 {
				errs[i] = fmt.Errorf("client %d: empty attribution %+v", i, qr.Profile)
				return
			}
			if shareScan {
				if qr.Profile.SharedPages == 0 || qr.SharedPages != qr.Profile.SharedPages {
					errs[i] = fmt.Errorf("client %d: cohort rider shared_pages resp=%d profile=%d, want > 0 and equal",
						i, qr.SharedPages, qr.Profile.SharedPages)
					return
				}
			} else if qr.Profile.LogicalReads == 0 {
				errs[i] = fmt.Errorf("client %d: empty attribution %+v", i, qr.Profile)
				return
			}
			if qr.Profile.ExecNS <= 0 {
				errs[i] = fmt.Errorf("client %d: profile exec_ns = %d", i, qr.Profile.ExecNS)
			}
			attributed[i] = qr.Profile.PagesRead
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var sum uint64
	for _, p := range attributed {
		sum += p
	}
	// The sweep's trailing I/O can settle just after the last rider's
	// response, so re-read until the books balance.
	var delta, sweepOwned uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := metricValue(t, s.Addr(), "dualsim_pages_read_total")
		delta = uint64(after - before)
		sweepOwned = 0
		if shareScan {
			st := getStats(t, s.Addr())
			if st.Cohort == nil || st.Cohort.RidersTotal == 0 {
				t.Fatalf("cohort saw no riders: %+v", st.Cohort)
			}
			sweepOwned = st.Cohort.SweepPagesRead - sweepBefore
		}
		if delta == sum+sweepOwned || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if delta != sum+sweepOwned {
		t.Errorf("attribution leak: global pages_read delta %d != per-query %d + sweep-owned %d",
			delta, sum, sweepOwned)
	}
	if shareScan && sweepOwned == 0 {
		t.Error("sweep owned no pages under ShareScan")
	}
	if sum+sweepOwned == 0 {
		t.Error("no pages attributed at all")
	}
}

// TestProfileTraceResumeRoundTrip checks trace identity survives the
// resume-token path: a token minted mid-stream carries the minting
// request's trace ID, and the continuation reports it as
// resumed_from_trace while minting its own fresh trace.
func TestProfileTraceResumeRoundTrip(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	s := newTestServer(t, db, Config{
		Engines: 1,
		// Tiny per-engine budget forces several level-1 windows, so the
		// stream carries mid-stream resume_token records.
		Engine: core.Options{Threads: 1, BufferFrames: 8},
	})

	resp, err := postQueryProfile(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	origTrace := resp.Header.Get("X-Dualsim-Trace-Id")
	sr := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if !sr.done {
		t.Fatalf("stream did not finish: %q", sr.errMsg)
	}
	if sr.trailer.TraceID != origTrace || origTrace == "" {
		t.Fatalf("trailer trace %q, header %q", sr.trailer.TraceID, origTrace)
	}
	if sr.trailer.Profile == nil || sr.trailer.Profile.PagesRead == 0 {
		t.Fatalf("streaming trailer missing profile: %+v", sr.trailer.Profile)
	}
	if sr.trailer.ResumedFromTrace != "" {
		t.Errorf("fresh run claims resumed_from_trace %q", sr.trailer.ResumedFromTrace)
	}
	if sr.lastToken == "" {
		t.Fatal("no resume_token records in a multi-window stream")
	}

	// Redeem the token: the continuation is a NEW trace that remembers
	// where it came from.
	resp2, err := postQueryProfile(t, s.Addr(), QueryRequest{
		Query: "q1", Mode: "embeddings", ResumeToken: sr.lastToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	newTrace := resp2.Header.Get("X-Dualsim-Trace-Id")
	sr2 := readResumableStream(t, resp2.Body)
	resp2.Body.Close()
	if !sr2.done {
		t.Fatalf("resumed stream did not finish: %q", sr2.errMsg)
	}
	if !sr2.trailer.Resumed {
		t.Error("resumed trailer does not report Resumed")
	}
	if sr2.trailer.ResumedFromTrace != origTrace {
		t.Errorf("resumed_from_trace = %q, want the minting trace %q", sr2.trailer.ResumedFromTrace, origTrace)
	}
	if newTrace == origTrace || sr2.trailer.TraceID != newTrace {
		t.Errorf("continuation trace = %q (header %q), want a fresh ID != %q", sr2.trailer.TraceID, newTrace, origTrace)
	}

	// Without ?profile=1 the response stays lean: trace yes, profile no.
	resp3, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Header.Get("X-Dualsim-Trace-Id") == "" {
		t.Error("plain query missing trace header")
	}
	qr := decodeQueryResponse(t, resp3)
	if qr.Profile != nil {
		t.Error("profile attached without ?profile=1")
	}
}

// TestQuerySpansAndSlowlog drives queries through a server owning a JSONL
// trace writer and checks (a) the span hierarchy links up — query span at
// the root, plan and run spans parented on it, level spans under the run,
// window spans under levels — and (b) the slow-query log records every
// completed query (threshold < 0) and surfaces through /debug/slowlog and
// the /stats summary with build info.
func TestQuerySpansAndSlowlog(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	var trace bytes.Buffer
	s := newTestServer(t, db, Config{
		Engines:            1,
		TraceWriter:        &trace,
		SlowQueryThreshold: -1, // record everything
		SlowLogSize:        8,
		SlowLogTopK:        4,
		Engine:             core.Options{Threads: 1, BufferFrames: 8},
	})

	qr := countQuery(t, s.Addr(), "q1")
	if qr.TraceID == "" {
		t.Fatal("count query has no trace ID")
	}

	// Slow log: the completed query is in the ring and the leaderboard.
	var slog obs.SlowLogSnapshot
	resp, err := http.Get("http://" + s.Addr() + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&slog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slog.Observed != 1 || slog.Slow != 1 {
		t.Errorf("slowlog counts observed=%d slow=%d, want 1/1", slog.Observed, slog.Slow)
	}
	if len(slog.Recent) != 1 || slog.Recent[0].TraceID != qr.TraceID {
		t.Fatalf("slowlog ring %+v, want the query's trace %s", slog.Recent, qr.TraceID)
	}
	e := slog.Recent[0]
	if e.Query != "q1-triangle" || e.Status != "ok" || e.PagesRead == 0 || e.Rows != 560 || e.DurNS <= 0 {
		t.Errorf("slowlog entry %+v", e)
	}
	if len(slog.TopByPages) != 1 || slog.TopByPages[0].PagesRead != e.PagesRead {
		t.Errorf("top-by-pages %+v", slog.TopByPages)
	}

	// Stats summary: counts + top, build identity, and the metric.
	st := getStats(t, s.Addr())
	if st.SlowLog.Observed != 1 || st.SlowLog.Slow != 1 || len(st.SlowLog.TopByPages) != 1 {
		t.Errorf("stats slow_log summary %+v", st.SlowLog)
	}
	if st.BuildVersion == "" {
		t.Error("stats missing build_version")
	}
	if v := metricValue(t, s.Addr(), "dualsim_slow_queries_total"); v != 1 {
		t.Errorf("dualsim_slow_queries_total = %g, want 1", v)
	}

	// Span hierarchy. Drain flushes the tracer.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	spanOf := map[string]obs.Event{} // first event per name
	parents := map[uint64]uint64{}   // span -> parent
	names := map[uint64]string{}     // span -> event that opened it
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if ev.TraceID != qr.TraceID {
			continue
		}
		if _, ok := spanOf[ev.Event]; !ok {
			spanOf[ev.Event] = ev
		}
		// Only the span-opening event carries the parent link; later
		// events on the same span (window_pinned, *_enum) leave Parent
		// unset, so record first occurrence only.
		if ev.Span != 0 {
			if _, ok := parents[ev.Span]; !ok {
				parents[ev.Span] = ev.Parent
				names[ev.Span] = ev.Event
			}
		}
	}
	for _, want := range []string{"query_start", "plan_resolve", "run_start", "level_start", "window_open", "run_end", "query_end"} {
		if _, ok := spanOf[want]; !ok {
			t.Fatalf("trace has no %s event for trace %s", want, qr.TraceID)
		}
	}
	query := spanOf["query_start"].Span
	if query == 0 {
		t.Fatal("query_start has no span ID")
	}
	if got := spanOf["plan_resolve"].Parent; got != query {
		t.Errorf("plan_resolve parent %d, want query span %d", got, query)
	}
	if got := spanOf["run_start"].Parent; got != query {
		t.Errorf("run_start parent %d, want query span %d", got, query)
	}
	// Every level span parents on the run span or a window span (nested
	// levels); every window span parents on a level span.
	run := spanOf["run_start"].Span
	for span, name := range names {
		parent := parents[span]
		switch name {
		case "level_start":
			if parent != run && names[parent] != "window_open" {
				t.Errorf("level span %d parent %d (%s), want run or window", span, parent, names[parent])
			}
		case "window_open":
			if names[parent] != "level_start" {
				t.Errorf("window span %d parent %d (%s), want a level span", span, parent, names[parent])
			}
		}
	}
}
