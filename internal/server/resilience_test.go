package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// clique4Spec is the 4-clique as an edge list (small enough to canonicalize,
// so it shares the plan cache and resume-token plan keys across requests).
const clique4Spec = "0-1,0-2,0-3,1-2,1-3,2-3"

// newFaultServer is newTestServer over an arbitrary core.Database (a
// faultdb wrapper in every test here).
func newFaultServer(t *testing.T, db core.Database, cfg Config) *Server {
	t.Helper()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fastFaultTolerant is the engine template the resilience tests share:
// both retry layers enabled with no real sleeping.
func fastFaultTolerant(windowRetries int) core.Options {
	return core.Options{
		Threads:      1,
		BufferFrames: 8,
		Retry: &storage.RetryPolicy{
			MaxRetries: 1,
			CRCRetries: 2,
			Sleep:      func(time.Duration) {},
		},
		WindowRetries:    windowRetries,
		WindowRetrySleep: func(time.Duration) {},
	}
}

// streamResult is one parsed NDJSON exchange.
type streamResult struct {
	rows      [][]graph.VertexID
	lastToken string // most recent resume_token seen on any line
	errMsg    string // error line, if the stream died
	trailer   QueryResponse
	done      bool // a Done trailer arrived
}

// readResumableStream consumes an embeddings stream that may contain
// interleaved {"resume_token": ...} records and may end in an error line
// instead of a trailer.
func readResumableStream(t *testing.T, body io.Reader) streamResult {
	t.Helper()
	var res streamResult
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			var row []graph.VertexID
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("bad row %q: %v", line, err)
			}
			res.rows = append(res.rows, row)
			continue
		}
		var obj struct {
			Error       string `json:"error"`
			ResumeToken string `json:"resume_token"`
			QueryResponse
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("bad object line %q: %v", line, err)
		}
		if obj.ResumeToken != "" {
			res.lastToken = obj.ResumeToken
		}
		if obj.Error != "" {
			res.errMsg = obj.Error
		}
		if obj.Done {
			res.trailer = obj.QueryResponse
			res.trailer.ResumeToken = obj.ResumeToken
			res.done = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return res
}

// countQuery posts a count-mode query and requires HTTP 200.
func countQuery(t *testing.T, addr, spec string) QueryResponse {
	t.Helper()
	resp, err := postQuery(t, addr, QueryRequest{Query: spec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("count query %q: status %d: %s", spec, resp.StatusCode, b)
	}
	return decodeQueryResponse(t, resp)
}

// metricValue scrapes one flat metric from GET /metrics.
func metricValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func getStats(t *testing.T, addr string) StatsResponse {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// rowKey identifies an embedding row for at-least-once dedup.
func rowKey(row []graph.VertexID) string { return fmt.Sprint(row) }

// resumeToCompletion drives a (possibly faulted) stream to its Done
// trailer: resubmit with the latest resume token until the run finishes.
// Returns the union of unique rows across attempts and the final trailer.
func resumeToCompletion(t *testing.T, addr, spec string, first streamResult, maxAttempts int,
	heal func(attempt int)) (map[string]struct{}, QueryResponse, int) {
	t.Helper()
	unique := make(map[string]struct{})
	for _, row := range first.rows {
		unique[rowKey(row)] = struct{}{}
	}
	cur := first
	attempts := 0
	for !cur.done {
		attempts++
		if attempts > maxAttempts {
			t.Fatalf("stream for %q did not finish within %d resume attempts (last error: %s)",
				spec, maxAttempts, cur.errMsg)
		}
		if heal != nil {
			heal(attempts)
		}
		tok := cur.lastToken
		resp, err := postQuery(t, addr, QueryRequest{Query: spec, Mode: "embeddings", ResumeToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("resume attempt %d for %q: status %d: %s", attempts, spec, resp.StatusCode, b)
		}
		next := readResumableStream(t, resp.Body)
		resp.Body.Close()
		for _, row := range next.rows {
			unique[rowKey(row)] = struct{}{}
		}
		// Progress may stall on one attempt (a fault before the next
		// checkpoint), but the token frontier never moves backwards.
		if next.lastToken == "" {
			next.lastToken = tok
		}
		cur = next
	}
	return unique, cur.trailer, attempts
}

// TestResumeTokenRoundTrip is the happy-path tentpole e2e: a stream killed
// mid-run by a permanent injected fault hands back a resume token; the
// resumed stream (a) reports the exact seed count, (b) replays only
// windows at/after the checkpoint — its dualsim_pages_read_total delta is
// strictly below a full run's — and (c) the row union across both
// attempts is exactly the full embedding set.
func TestResumeTokenRoundTrip(t *testing.T) {
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, resilienceCfg())
	want := countQuery(t, s.Addr(), "q1").Count // C(32,3) = 4960
	if want != 4960 {
		t.Fatalf("seed count = %d, want 4960", want)
	}

	// Steady-state reads of one full run (the pool is warm after the
	// baseline above, so this delta is the per-run re-read cost).
	before := metricValue(t, s.Addr(), "dualsim_pages_read_total")
	full := readFullStream(t, s.Addr(), "q1")
	fullReads := metricValue(t, s.Addr(), "dualsim_pages_read_total") - before
	if !full.done || full.trailer.Count != want {
		t.Fatalf("clean stream: done=%v trailer=%+v", full.done, full.trailer)
	}
	if full.lastToken == "" {
		t.Fatal("clean stream carried no resume tokens; need >= 2 level-1 windows (shrink BufferFrames)")
	}
	if fullReads == 0 {
		t.Fatal("full run re-read nothing; buffer too large for the resume-delta assertion")
	}

	// Kill a run ~3/4 through its reads with a permanent fault (no retry
	// layer absorbs it), then resume from the token on the error line.
	reads0 := fdb.Reads()
	fdb.FailNth(reads0+int64(fullReads*3/4), fmt.Errorf("injected mid-run device loss"))
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	killed := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if killed.done {
		t.Fatal("kill point never fired; the stream completed")
	}
	if killed.errMsg == "" || killed.lastToken == "" {
		t.Fatalf("killed stream: errMsg=%q lastToken=%q (want both set)", killed.errMsg, killed.lastToken)
	}

	before = metricValue(t, s.Addr(), "dualsim_pages_read_total")
	unique, trailer, _ := resumeToCompletion(t, s.Addr(), "q1", killed, 5, nil)
	resumeReads := metricValue(t, s.Addr(), "dualsim_pages_read_total") - before
	if trailer.Count != want {
		t.Fatalf("resumed count = %d, want %d", trailer.Count, want)
	}
	if !trailer.Resumed {
		t.Error("resumed trailer does not report resumed=true")
	}
	if len(unique) != int(want) {
		t.Fatalf("union of rows = %d unique, want %d", len(unique), want)
	}
	if resumeReads >= fullReads {
		t.Fatalf("resumed run read %v pages, full run reads %v: resume replayed completed windows",
			resumeReads, fullReads)
	}
	t.Logf("resume read %.0f of %.0f full-run pages", resumeReads, fullReads)
	if st := getStats(t, s.Addr()); st.ResumesOK == 0 || st.CheckpointsTaken == 0 {
		t.Errorf("stats: resumes_ok=%d checkpoints_taken=%d, want both > 0", st.ResumesOK, st.CheckpointsTaken)
	}
}

// resilienceCfg is the shared single-engine resilience config.
func resilienceCfg() Config {
	return Config{
		Engines:  1,
		RowLimit: 1_000_000,
		Engine:   fastFaultTolerant(2),
	}
}

func readFullStream(t *testing.T, addr, spec string) streamResult {
	t.Helper()
	resp, err := postQuery(t, addr, QueryRequest{Query: spec, Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %q: status %d: %s", spec, resp.StatusCode, b)
	}
	return readResumableStream(t, resp.Body)
}

// TestChaosMatrixFaultedResumeExactCounts is the acceptance kill-point
// matrix: 8 kill points spread across the read sequence x 2 query shapes.
// Each point kills a streaming run with a permanent injected fault at an
// exact global read, resumes from the handed-back token, and requires the
// final count to equal the seed count exactly and the row union to be the
// complete embedding set.
func TestChaosMatrixFaultedResumeExactCounts(t *testing.T) {
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, resilienceCfg())

	shapes := []struct {
		spec string
		want uint64
	}{
		{"q1", 4960},         // C(32,3)
		{clique4Spec, 35960}, // C(32,4)
	}
	const killPoints = 8
	for _, shape := range shapes {
		// Steady-state per-run reads for this shape (pool warm after this).
		countQuery(t, s.Addr(), shape.spec)
		r0 := fdb.Reads()
		if got := countQuery(t, s.Addr(), shape.spec).Count; got != shape.want {
			t.Fatalf("%s seed count = %d, want %d", shape.spec, got, shape.want)
		}
		perRun := fdb.Reads() - r0
		if perRun < killPoints {
			t.Fatalf("%s re-reads only %d pages per run; matrix needs >= %d", shape.spec, perRun, killPoints)
		}
		for i := 1; i <= killPoints; i++ {
			off := perRun * int64(i) / (killPoints + 2)
			if off < 1 {
				off = 1
			}
			fdb.Heal()
			injected0 := fdb.Stats().Injected
			fdb.FailNth(fdb.Reads()+off, fmt.Errorf("matrix kill %d/%d", i, killPoints))
			resp, err := postQuery(t, s.Addr(), QueryRequest{Query: shape.spec, Mode: "embeddings"})
			if err != nil {
				t.Fatal(err)
			}
			killed := readResumableStream(t, resp.Body)
			resp.Body.Close()
			if fdb.Stats().Injected == injected0 {
				t.Fatalf("%s kill %d (read offset %d) never fired", shape.spec, i, off)
			}
			if killed.done {
				t.Fatalf("%s kill %d: stream completed despite the injected fault", shape.spec, i)
			}
			fdb.Heal()
			unique, trailer, _ := resumeToCompletion(t, s.Addr(), shape.spec, killed, 4, nil)
			if trailer.Count != shape.want {
				t.Errorf("%s kill %d: resumed count = %d, want %d", shape.spec, i, trailer.Count, shape.want)
			}
			if len(unique) != int(shape.want) {
				t.Errorf("%s kill %d: row union = %d unique, want %d", shape.spec, i, len(unique), shape.want)
			}
		}
	}
	if st := getStats(t, s.Addr()); st.ResumesOK == 0 {
		t.Errorf("matrix recorded no accepted resumes: %+v", st)
	}
}

// TestChaosSoak (make soak / CI soak job) runs seeded chaos schedules —
// background transient faults, bursts, torn reads, latency spikes —
// through the full server path for a time-boxed interval (SOAK_SECONDS,
// default 2). Every iteration must converge, through the retry layers and
// token resume, to exactly the seed count. The iteration's seed is in
// every failure message, and an iteration is reproducible by seed because
// each one gets a freshly seeded fault wrapper and server.
func TestChaosSoak(t *testing.T) {
	soak := 2 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad SOAK_SECONDS %q: %v", v, err)
		}
		soak = time.Duration(secs) * time.Second
	}
	db := buildCompleteDB(t, 32, 256)
	wants := map[string]uint64{"q1": 4960, clique4Spec: 35960}
	specs := []string{"q1", clique4Spec}

	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < soak; iter++ {
		seed := int64(90_000 + iter)
		spec := specs[iter%len(specs)]
		want := wants[spec]
		fdb := faultdb.Wrap(db, faultdb.Options{Seed: seed}).Chaos(faultdb.ChaosSchedule{
			FaultRate:  0.02,
			BurstEvery: 400,
			BurstLen:   40,
			BurstRate:  0.35,
			TornRate:   0.01,
			SlowRate:   0.005,
			SlowDelay:  100 * time.Microsecond,
		})
		s := newFaultServer(t, fdb, Config{
			Engines:  1,
			RowLimit: 1_000_000,
			Engine:   fastFaultTolerant(2),
		})
		first := readFullStream(t, s.Addr(), spec)
		// Chaos stays armed while resuming; past half the attempt budget the
		// storm is lifted so the iteration provably terminates.
		unique, trailer, attempts := resumeToCompletion(t, s.Addr(), spec, first, 30, func(attempt int) {
			if attempt > 15 {
				fdb.Heal()
			}
		})
		if trailer.Count != want {
			t.Fatalf("soak seed %d (%s): count = %d, want %d", seed, spec, trailer.Count, want)
		}
		if len(unique) != int(want) {
			t.Fatalf("soak seed %d (%s): row union = %d unique, want %d", seed, spec, len(unique), want)
		}
		if testing.Verbose() {
			st := fdb.Stats()
			t.Logf("soak seed %d (%s): %d resumes, %d injected faults, %d torn, %d delayed, attempts=%d",
				seed, spec, attempts, st.Injected, st.Flipped, st.Delayed, attempts)
		}
		s.Close()
	}
}

// TestBreakerOpensAndRecovers: a persistently faulting device trips the
// breaker after enough failed runs; the service then rejects fast with 429
// + Retry-After (no engine time burned), and after the cooldown a single
// successful probe closes the breaker again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	// K32 does not fit in the 8-frame buffer, so every run re-reads pages
	// and injected faults actually fire.
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, Config{
		Engines:           1,
		BreakerWindow:     4,
		BreakerMinSamples: 2,
		BreakerOpenRatio:  0.6,
		BreakerCooldown:   50 * time.Millisecond,
		Engine:            fastFaultTolerant(0),
	})
	want := countQuery(t, s.Addr(), "q1").Count

	// Device dies: every read fails transiently, runs fail after the retry
	// budgets, and each failure feeds the breaker.
	fdb.FailRandom(1.0, nil)
	for i := 0; i < 2; i++ {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted run %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if st := getStats(t, s.Addr()); st.BreakerState != "open" || st.BreakerTrips == 0 {
		t.Fatalf("after 2 transient failures: breaker %q trips=%d, want open", st.BreakerState, st.BreakerTrips)
	}

	// Open: reject-fast with Retry-After, without consuming a read.
	reads0 := fdb.Reads()
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open breaker: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open breaker: missing Retry-After")
	}
	if fdb.Reads() != reads0 {
		t.Errorf("rejected request still touched the device (%d reads)", fdb.Reads()-reads0)
	}
	if getStats(t, s.Addr()).BreakerRejects == 0 {
		t.Error("breaker_rejects not counted")
	}

	// Device heals; after the cooldown the next request is the half-open
	// probe, succeeds, and the breaker closes.
	fdb.Heal()
	time.Sleep(70 * time.Millisecond)
	if got := countQuery(t, s.Addr(), "q1").Count; got != want {
		t.Fatalf("probe count = %d, want %d", got, want)
	}
	if st := getStats(t, s.Addr()); st.BreakerState != "closed" {
		t.Fatalf("after successful probe: breaker %q, want closed", st.BreakerState)
	}
	if got := countQuery(t, s.Addr(), "q1").Count; got != want {
		t.Fatalf("post-recovery count = %d, want %d", got, want)
	}
	if v := metricValue(t, s.Addr(), "dualsim_breaker_state"); v != 0 {
		t.Errorf("dualsim_breaker_state = %v, want 0 (closed)", v)
	}
}

// TestBreakerStaysClosedBelowOpenRatio: a fault ratio below the open
// threshold leaves the breaker closed — no degraded middle state — and the
// pool keeps admitting and answering runs.
func TestBreakerStaysClosedBelowOpenRatio(t *testing.T) {
	db := buildCompleteDB(t, 80, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, Config{
		Engines:           1,
		BreakerWindow:     4,
		BreakerMinSamples: 4,
		BreakerOpenRatio:  0.5,
		BreakerCooldown:   time.Hour,
		Engine: core.Options{
			Threads:      1,
			BufferFrames: 96,
			Retry: &storage.RetryPolicy{
				MaxRetries: 1,
				Sleep:      func(time.Duration) {},
			},
		},
	})
	want := countQuery(t, s.Addr(), "q1").Count
	countQuery(t, s.Addr(), "q1")

	// One transient failure lands at n=3 (< minSamples: no state change);
	// the next success reaches minSamples with a fault ratio of 1/4, below
	// the open threshold.
	fdb.FailRandom(1.0, nil)
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted run: status %d, want 500", resp.StatusCode)
	}
	fdb.Heal()
	countQuery(t, s.Addr(), "q1")
	if st := getStats(t, s.Addr()); st.BreakerState != "closed" || st.BreakerTrips != 0 {
		t.Fatalf("breaker %q trips=%d after 1 fault in 4 outcomes, want closed", st.BreakerState, st.BreakerTrips)
	}
	if v := metricValue(t, s.Addr(), "dualsim_breaker_state"); v != 0 {
		t.Errorf("dualsim_breaker_state = %v, want 0 (closed)", v)
	}

	// Still admitting: the next run is answered, not rejected.
	if got := countQuery(t, s.Addr(), "q1").Count; got != want {
		t.Fatalf("count below the open ratio = %d, want %d", got, want)
	}
	if st := getStats(t, s.Addr()); st.BreakerRejects != 0 {
		t.Errorf("breaker rejected %d requests below the open ratio", st.BreakerRejects)
	}
}

// TestResumeTokenRejection covers the rejection family: garbage and
// tampered tokens are 400, a token minted for one plan cannot resume a
// different query (409), and every rejection is counted.
func TestResumeTokenRejection(t *testing.T) {
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, resilienceCfg())

	// Mint a real token by truncating a stream past a window boundary.
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if !res.done || !res.trailer.Truncated || res.trailer.ResumeToken == "" {
		t.Fatalf("truncated stream must carry a resume token: done=%v trailer=%+v", res.done, res.trailer)
	}
	tok := res.trailer.ResumeToken

	post := func(req QueryRequest) int {
		resp, err := postQuery(t, s.Addr(), req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(QueryRequest{Query: "q1", ResumeToken: "garbage"}); code != http.StatusBadRequest {
		t.Errorf("garbage token: status %d, want 400", code)
	}
	tampered := []byte(tok)
	tampered[len(tampered)/3] ^= 1
	if code := post(QueryRequest{Query: "q1", ResumeToken: string(tampered)}); code != http.StatusBadRequest {
		t.Errorf("tampered token: status %d, want 400", code)
	}
	if code := post(QueryRequest{Query: clique4Spec, ResumeToken: tok}); code != http.StatusConflict {
		t.Errorf("cross-plan token: status %d, want 409", code)
	}
	if st := getStats(t, s.Addr()); st.ResumesRejected != 3 {
		t.Errorf("resumes_rejected = %d, want 3", st.ResumesRejected)
	}

	// The untampered token still resumes the right plan to the exact count.
	unique, trailer, _ := resumeToCompletion(t, s.Addr(), "q1",
		streamResult{lastToken: tok}, 3, nil)
	if trailer.Count != 4960 {
		t.Errorf("resumed count = %d, want 4960", trailer.Count)
	}
	_ = unique
	if v := metricValue(t, s.Addr(), "dualsim_resumes_total"); v != 4 {
		t.Errorf("dualsim_resumes_total = %v, want 4 (3 rejected + 1 ok)", v)
	}
}

// TestPoolCapacityAfterRetryExhaustion (ISSUE 6 satellite): back-to-back
// runs that exhaust both retry layers must not leak pool capacity — every
// engine returns to the slots channel clean (no recycling), and the healed
// pool serves correct counts.
func TestPoolCapacityAfterRetryExhaustion(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)
	const engines = 2
	s := newFaultServer(t, fdb, Config{
		Engines: engines,
		// Breaker thresholds out of reach: this test is about the pool, not
		// admission.
		BreakerMinSamples: 1 << 30,
		Engine:            fastFaultTolerant(1),
	})

	for i := 0; i < 6; i++ {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("exhausted run %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// release() runs after the response body completes; give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) != engines && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(s.slots); got != engines {
		t.Fatalf("pool capacity = %d after retry exhaustion, want %d", got, engines)
	}
	if got := s.sm.recycled.Value(); got != 0 {
		t.Fatalf("%d engines recycled: retry exhaustion leaked pins", got)
	}

	fdb.Heal()
	if got := countQuery(t, s.Addr(), "q1").Count; got != 560 { // C(16,3)
		t.Fatalf("healed count = %d, want 560", got)
	}
}

// TestDisconnectSettlesPins: a client disconnect while windows are
// loading must settle every pin before the engine re-enters the pool — the
// engine is REUSED (no recycle), with zero pinned frames.
func TestDisconnectSettlesPins(t *testing.T) {
	db := buildCompleteDB(t, 48, 256)
	s := newTestServer(t, db, Config{
		Engines:  1,
		RowLimit: 10_000_000,
		Engine: core.Options{
			Threads:        2,
			BufferFrames:   64,
			PerPageLatency: 5 * time.Millisecond,
		},
	})

	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: clique4Spec, Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close() // vanish mid-run, while window loads are in flight

	select {
	case eng := <-s.slots:
		if pins := eng.PinnedFrames(); pins != 0 {
			t.Errorf("engine returned with %d pinned frames (pins not settled)", pins)
		}
		s.slots <- eng
	case <-time.After(15 * time.Second):
		t.Fatal("engine never returned to the pool after disconnect")
	}
	if got := s.sm.recycled.Value(); got != 0 {
		t.Fatalf("engine was recycled (%d) instead of settled and reused", got)
	}
}
