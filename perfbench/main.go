// Command perfbench is the repository benchmark. It drives the engine
// through its public entry points on one seeded workload, checks every
// result against a brute-force oracle, and prints one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// is repeated with an in-memory span collector and a timing decorator on
// the storage layer, and the metrics are the per-layer set. A human table
// of every metric, with the end-to-end metric each layer metric should
// move, goes to standard error.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload cold-sparse --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. moves says which end-to-end metric
// and workload a per-layer metric should move; BENCHMARK.json lists the
// same names (TestBenchmarkFileMatchesMetricDefs).
type metricDef struct {
	name, unit, moves string
}

// The gated end-to-end metrics are process CPU time and counts. Wall-clock
// latencies swung by up to 2x between minutes on a 2-core sandbox whose
// host stole 9-33% of the CPUs, beyond any bound the benchmark may set;
// CPU time moved a few percent over the same minutes. The wall-clock
// latencies are still measured on every run (printed on standard error)
// and reported, ungated, with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "CPU time to generate the graph, build and open the DB, start engine or server, warm up (median of several set-ups)"},
	{"cpu_ms_per_op", "ms", "process CPU time per completed operation, over the workload's whole mix"},
	{"pages_per_query", "count/query", "buffer page requests (logical reads) per completed query"},
	{"heap_peak_mb", "MB", "peak heap in use during the timed phase (90th percentile of 250 ms window peaks)"},
}

var perLayer = []metricDef{
	{"run_s.q1", "s", "wall clock, untraced: median time of one triangle query"},
	{"run_s.q2", "s", "wall clock, untraced: median time of one square query (cold-sparse only)"},
	{"run_s.q3", "s", "wall clock, untraced: median time of one chordal-square query"},
	{"run_s.q4", "s", "wall clock, untraced: median time of one 4-clique query"},
	{"run_s.q5", "s", "wall clock, untraced: median time of one house query (cold-sparse only)"},
	{"count_ms.p50", "ms", "wall clock, untraced: median count latency over the mix"},
	{"count_ms.p95", "ms", "wall clock, untraced: 95th percentile count latency"},
	{"ops_per_s", "1/s", "wall clock, untraced: operations completed per second"},
	{"stream_ms.p50", "ms", "wall clock, untraced: median embeddings-stream latency (serve-rw only)"},
	{"ingest_ms.p50", "ms", "wall clock, untraced: median POST /edges latency (serve-rw only)"},
	{"ingest_ms.p90", "ms", "wall clock, untraced: 90th percentile POST /edges latency (serve-rw only)"},

	{"storage.read_calls", "count/query", "cpu_ms_per_op (run_s.q1/q3/q4) and pages_per_query on cold-sparse; ~0 on warm-skew"},
	{"storage.read_pages", "count/query", "cpu_ms_per_op (run_s.q1/q3/q4) and pages_per_query on cold-sparse; ~0 on warm-skew"},
	{"storage.read_ms", "ms/query", "cpu_ms_per_op (run_s.q1/q3/q4) on cold-sparse; ~0 on warm-skew"},
	{"storage.parse_us_per_page", "us", "cpu_ms_per_op (run_s.*) on cold-sparse"},
	{"storage.build_s", "s", "setup_s"},
	{"storage.bytes_per_edge", "B", "pages_per_query"},
	{"storage.stamp_epoch_ms", "ms", "cpu_ms_per_op (ingest_ms.p50) on serve-rw"},
	{"storage.compact_s", "s", "cpu_ms_per_op (ingest_ms.p90, count_ms.p95) on serve-rw"},

	{"buffer.logical_reads", "count/query", "pages_per_query on every workload"},
	{"buffer.physical_reads", "count/query", "cpu_ms_per_op (run_s.*) on cold-sparse; 0 on warm-skew"},
	{"buffer.hit_ratio", "ratio", "cpu_ms_per_op (run_s.*) on cold-sparse; flat on warm-skew"},
	{"buffer.evictions", "count/query", "cpu_ms_per_op (run_s.*) on cold-sparse; flat on warm-skew"},
	{"buffer.pin_wait_ms", "ms/query", "cpu_ms_per_op (run_s.*) on cold-sparse"},
	{"buffer.pages_per_coalesced_run", "count", "cpu_ms_per_op (run_s.*) on cold-sparse"},
	{"buffer.pin_hit_ns", "ns", "cpu_ms_per_op (run_s.*) on warm-skew"},
	{"buffer.pin_miss_us", "us", "cpu_ms_per_op (run_s.*) on cold-sparse"},

	{"plan.prepare_us", "us", "cpu_ms_per_op (count_ms.p50) on serve-rw"},
	{"graph.canonical_us", "us", "cpu_ms_per_op (count_ms.p50) on serve-rw"},
	{"plan.cache_hit_ratio", "ratio", "cpu_ms_per_op (count_ms.p50) on serve-rw"},
	{"plan.cache_evictions", "count", "cpu_ms_per_op (count_ms.p50) on serve-rw"},

	{"graph.intersect_linear", "count/query", "cpu_ms_per_op (run_s.q3/q4) on warm-skew"},
	{"graph.intersect_gallop", "count/query", "cpu_ms_per_op (run_s.q3/q4) on warm-skew"},
	{"graph.intersect_kway", "count/query", "cpu_ms_per_op (run_s.q3/q4) on warm-skew"},
	{"graph.intersect_compressed", "count/query", "cpu_ms_per_op (run_s.q3/q4) on warm-skew"},
	{"graph.intersect_ns.sorted", "ns", "cpu_ms_per_op (run_s.q3/q4) on warm-skew and (run_s.q2/q5) on cold-sparse"},
	{"graph.intersect_ns.kway", "ns", "cpu_ms_per_op (run_s.q3/q4) on warm-skew and (run_s.q2/q5) on cold-sparse"},
	{"graph.intersect_ns.compressed", "ns", "cpu_ms_per_op (run_s.q3/q4) on warm-skew"},

	{"core.windows.l1", "count/query", "pages_per_query on cold-sparse"},
	{"core.windows.l2", "count/query", "pages_per_query on cold-sparse"},
	{"core.windows.l3", "count/query", "cpu_ms_per_op (run_s.q2/q5) and pages_per_query on cold-sparse"},
	{"core.ext_enum_ms", "ms/query", "cpu_ms_per_op (run_s.q2/q5) on cold-sparse"},
	{"core.window_ms", "ms/query", "cpu_ms_per_op (run_s.q2/q5) on cold-sparse (window self time)"},
	{"core.window_wait_ms", "ms/query", "cpu_ms_per_op (run_s.*) on cold-sparse (Result.IOWait; see NOTES.md)"},
	{"core.prep_us", "us", "cpu_ms_per_op (count_ms.p50) on every workload (Result.PrepTime per query)"},
	{"core.run_self_ms", "ms/query", "cpu_ms_per_op (run_s.*) on the library workloads (Run span minus its level-1 windows)"},
	{"core.engine_open_ms", "ms/query", "cpu_ms_per_op (run_s.*) on cold-sparse (NewEngine + Close spans)"},
	{"core.steal_splits", "count/query", "cpu_ms_per_op (run_s.*) on warm-skew"},
	{"core.worker_tasks", "count/query", "cpu_ms_per_op (run_s.*) on warm-skew"},
	{"core.embeddings_per_s", "1/s", "cpu_ms_per_op (run_s.*) on warm-skew"},
	{"core.overlay_merged_vertices", "count/query", "cpu_ms_per_op (count_ms.*) on serve-rw"},
	{"core.sweep_load_ms", "ms", "pages_per_query and cpu_ms_per_op (count_ms.*) on serve-shared"},

	{"delta.overlay_vertices", "count", "cpu_ms_per_op (count_ms.*) on serve-rw"},
	{"delta.apply_us", "us", "cpu_ms_per_op (ingest_ms.p50) on serve-rw"},

	{"sharedscan.riders_per_sweep", "count", "pages_per_query and cpu_ms_per_op (count_ms.*) on serve-shared; 0 on serve-rw"},
	{"sharedscan.shared_page_ratio", "ratio", "pages_per_query on serve-shared; 0 on serve-rw"},
	{"sharedscan.fallbacks", "count", "cpu_ms_per_op (count_ms.*) on serve-shared; 0 on serve-rw"},

	{"server.queue_ms", "ms", "cpu_ms_per_op (count_ms.*) on the serve workloads"},
	{"server.prep_ms", "ms", "cpu_ms_per_op (count_ms.*) on the serve workloads"},
	{"server.exec_ms", "ms", "cpu_ms_per_op (count_ms.*) on the serve workloads"},
	{"server.http_ms", "ms", "cpu_ms_per_op (count_ms.*) on the serve workloads (client latency minus queue, prep and exec)"},
	{"server.rejected", "count", "failed operations (attempted/failed in the result)"},
	{"server.rows_streamed", "count", "cpu_ms_per_op (stream_ms.p50) on serve-rw"},
	{"server.compactions", "count", "cpu_ms_per_op (ingest_ms.p90) on serve-rw"},

	{"obs.trace_overhead", "ratio", "traced CPU time per operation over untraced CPU time per operation, minus 1"},
}

// A run sets its workload up at least minSetups times, and more while the
// set-ups have used less than setupBudget of CPU (at most maxSetups);
// setup_s is the median, so one slow set-up does not move it.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for database files
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each name in BENCHMARK.json to its run; why each exists
// is recorded there and in NOTES.md.
var workloads = map[string]func(o options, r *report) error{
	"cold-sparse":  runColdSparse,
	"warm-skew":    runWarmSkew,
	"serve-rw":     runServeRW,
	"serve-shared": runServeShared,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds > 0, -trace 0 or 1\n", strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.work, _ = filepath.Abs(work)
	r := newReport()
	err = run(o, r)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the human table to stderr and the result line to stdout.
func emit(o options, r *report) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: %d attempted, %d failed (failed_ratio %.4f)\n",
		o.workload, o.seed, o.trace, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  FAILED:", p)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{v, d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-12s %s\n", d.name, v, d.unit, d.moves)
	}
	if !o.trace {
		fmt.Fprintln(os.Stderr, "  not gated:")
		for _, d := range perLayer {
			if v, ok := r.metrics[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-12s %s\n", d.name, v, d.unit, d.moves)
			}
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by linear interpolation (the
// "inclusive" method of Python's statistics.quantiles); 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
