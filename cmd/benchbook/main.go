// Command benchbook maintains docs/BENCHMARKS.md, the repository's
// benchmark book: a generated, committed record of the intersection-kernel
// and window-enumeration benchmarks that back the performance claims in
// EXPERIMENTS.md.
//
// Modes:
//
//	benchbook -write            run the bench suite and regenerate the book
//	benchbook -check            run the suite once and fail if the book is
//	                            stale (its benchmark set no longer matches
//	                            what the code produces)
//	benchbook -input raw.txt    render from previously captured `go test
//	                            -bench` output instead of running it
//
// Numbers vary run to run, so -check compares the *set of benchmark rows*
// (names), not the timings: a benchmark added, renamed, or removed without
// regenerating the book is an error; a faster machine is not. CI uploads
// the raw -bench output as an artifact so the actual numbers from every
// run remain inspectable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// benchPattern selects the book's benchmarks: the kernel micro-benchmarks
// and the seed-vs-adaptive window enumeration acceptance benchmark.
const benchPattern = "BenchmarkIntersect|BenchmarkWindowEnum"

// benchCmd is the command the book is generated from (recorded in the
// book's header so a reader can reproduce it).
var benchCmd = []string{"go", "test", "-run", "^$", "-bench", benchPattern, "-benchtime", "2s", "."}

// row is one parsed benchmark result line.
type row struct {
	name    string // full sub-benchmark path, GOMAXPROCS suffix stripped
	iters   string
	nsPerOp float64
	extra   []string // remaining metric pairs (B/op, allocs/op, ...)
}

// benchLine matches `BenchmarkFoo/sub-8  123  456 ns/op  [more metrics]`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parseBench(out string) (rows []row, env []string) {
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
			strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:") {
			env = append(env, line)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := row{name: m[1], iters: m[2]}
		fmt.Sscanf(m[3], "%f", &r.nsPerOp)
		for _, f := range strings.Fields(m[4]) {
			r.extra = append(r.extra, f)
		}
		rows = append(rows, r)
	}
	return rows, env
}

func humanNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2f µs", ns/1e3)
	default:
		return fmt.Sprintf("%.1f ns", ns)
	}
}

// render writes the benchmark book. Sections group by top-level benchmark
// name; the WindowEnum section appends the derived seed/adaptive speedup,
// which is the number ISSUE 4's acceptance criterion (>=1.5x) refers to.
func render(rows []row, env []string) string {
	var b strings.Builder
	b.WriteString("# Benchmark Book\n\n")
	b.WriteString("<!-- Generated by cmd/benchbook. Do not edit by hand: run `make bench-book`. -->\n\n")
	b.WriteString("Regenerate with `make bench-book`, which runs:\n\n```\n" +
		strings.Join(benchCmd, " ") + "\n```\n\n")
	b.WriteString("Timings below are from the last regeneration and vary by machine; CI\n")
	b.WriteString("checks only that the benchmark *set* matches the code (`benchbook\n")
	b.WriteString("-check`) and archives each run's raw output as an artifact.\n\n")

	if len(env) > 0 {
		b.WriteString("## Environment\n\n```\n")
		for _, e := range env {
			b.WriteString(e + "\n")
		}
		b.WriteString("```\n\n")
	}

	// Group rows by top-level benchmark, preserving first-seen order.
	groups := map[string][]row{}
	var order []string
	for _, r := range rows {
		top := r.name
		if i := strings.IndexByte(top, '/'); i >= 0 {
			top = top[:i]
		}
		if _, ok := groups[top]; !ok {
			order = append(order, top)
		}
		groups[top] = append(groups[top], r)
	}

	blurbs := map[string]string{
		"BenchmarkIntersectBalanced":   "Comparable list lengths (4096 vs 8192): the linear merge's home turf. The adaptive dispatch must track the linear kernel here — galloping's binary searches only pay off under skew.",
		"BenchmarkIntersectSkewed":     "1024× skew (64 vs 65536), a low-degree vertex probing a hub's adjacency list. Galloping (DESIGN.md §kernels) skips runs of the long list instead of walking them.",
		"BenchmarkIntersectExtreme":    "Paper-scale skew (4 vs 2^20): the 1-vs-10⁶ case from the skew test matrix in internal/graph/intersect_test.go.",
		"BenchmarkIntersectKWay":       "A 4-list ivory intersection (paper §5.2: ivory vertices intersect ≥2 red adjacency lists). Smallest-first ordering shrinks the running intersection before the big lists are touched.",
		"BenchmarkIntersectCompressed": "The skewed shape with the hub list stored delta+varint compressed (docs/STORAGE.md): `decode-then-intersect` materializes the hub list before the plain adaptive kernel runs; `compressed-domain` gallops over the encoded bytes via the skip table (graph.IntersectCompressed) and touches only the blocks the probe list lands in. The allocs/op column is the point as much as time/op — the compressed-domain path is allocation-free.",
		"BenchmarkWindowEnum":          "The tentpole acceptance benchmark: 4-clique enumeration on the planted-hub skewed fixture (gen.PlantedHubs). `seed` is the pre-adaptive engine (linear merges, static 4×-oversubscribed partitioning); `adaptive` is the default engine (adaptive kernels + bounded work-stealing); the two single-feature variants isolate each contribution; all four run whole-database-buffered. The `io-*` variants instead simulate an HDD (200 µs/page transfer, 2 ms seek) under a 176-frame buffer far smaller than the database, so every run churns windows: `io-nopfetch` exercises coalesced run reads within each window. The io_wait_ms/op metric is orchestrator time blocked on window loads. `io-faulted` is `io-nopfetch` on a device injecting seeded transient faults (0.5% of reads), absorbed by the read-retry and window-retry layers; window_retries/op counts whole-window recoveries per run. `adaptive-attributed` is the default engine with per-query cost attribution on (core.Options.Profile): every hot-path counter also lands in the run's obs.Scope, and the delta against `adaptive` is the attribution overhead. The `solo-4q`/`shared-4q` pair is the serving policy comparison behind `serve -share-scan`: 4 identical 4-clique queries against the same global budget (1.5× the database), either as 4 cold solo engines each holding a quarter of it, or as one cohort engine holding it undivided and sweeping the level-1 windows once for all riders; pages/query is physical reads per arrival. The `compressed`/`compressed-eager` pair runs the identical fixture from a delta+varint-compressed database (docs/STORAGE.md): `compressed` is the default engine, whose last-level windows keep encoded spans and whose kernels intersect them in place; `compressed-eager` ablates the compressed-domain kernels by decoding every record at window-load time (core.Options.EagerDecode), isolating the storage win from the compute win. The bytes/edge column is on-disk adjacency payload per stored edge (storage.FileStats.AdjBytes) and windows/run counts window iterations across all levels; both feed the derived lines below.",
	}

	for _, top := range order {
		b.WriteString("## " + top + "\n\n")
		if blurb := blurbs[top]; blurb != "" {
			b.WriteString(blurb + "\n\n")
		}
		b.WriteString("| Benchmark | Iterations | Time/op | Extra |\n")
		b.WriteString("|---|---:|---:|---|\n")
		for _, r := range groups[top] {
			b.WriteString(fmt.Sprintf("| `%s` | %s | %s | %s |\n",
				r.name, r.iters, humanNs(r.nsPerOp), strings.Join(r.extra, " ")))
		}
		b.WriteString("\n")
		if top == "BenchmarkWindowEnum" {
			var seed, adaptive float64
			for _, r := range groups[top] {
				switch {
				case strings.HasSuffix(r.name, "/seed"):
					seed = r.nsPerOp
				case strings.HasSuffix(r.name, "/adaptive"):
					adaptive = r.nsPerOp
				}
			}
			if seed > 0 && adaptive > 0 {
				b.WriteString(fmt.Sprintf("**Seed → adaptive speedup: %.2f×** (acceptance floor: 1.5×).\n\n", seed/adaptive))
			}
			var attributed float64
			for _, r := range groups[top] {
				if strings.HasSuffix(r.name, "/adaptive-attributed") {
					attributed = r.nsPerOp
				}
			}
			if adaptive > 0 && attributed > 0 {
				b.WriteString(fmt.Sprintf(
					"**Attribution overhead: %+.1f%% time/op with per-query cost attribution on** "+
						"(%s → %s, single-run delta — attribution batches its counters per window/task, "+
						"so the true cost sits inside this fixture's run-to-run noise); attribution-off costs "+
						"one nil check per counter site and is bounded at ≤2%% by the acceptance criteria.\n\n",
					(attributed/adaptive-1)*100, humanNs(adaptive), humanNs(attributed)))
			}
			var nopf, faulted row
			for _, r := range groups[top] {
				switch {
				case strings.HasSuffix(r.name, "/io-nopfetch"):
					nopf = r
				case strings.HasSuffix(r.name, "/io-faulted"):
					faulted = r
				}
			}
			if wr, ok := rowMetric(faulted, "window_retries/op"); ok && nopf.nsPerOp > 0 {
				b.WriteString(fmt.Sprintf(
					"**Survivability: %.1f window retries/op absorbed at %.2f× the clean io-nopfetch time/op** "+
						"(%s → %s); failed window attempts re-read only the faulted window, never the run.\n\n",
					wr, faulted.nsPerOp/nopf.nsPerOp, humanNs(nopf.nsPerOp), humanNs(faulted.nsPerOp)))
			}
			var solo4, shared4 row
			for _, r := range groups[top] {
				switch {
				case strings.HasSuffix(r.name, "/solo-4q"):
					solo4 = r
				case strings.HasSuffix(r.name, "/shared-4q"):
					shared4 = r
				}
			}
			if sp, ok1 := rowMetric(solo4, "pages/query"); ok1 {
				if cp, ok2 := rowMetric(shared4, "pages/query"); ok2 && cp > 0 {
					b.WriteString(fmt.Sprintf(
						"**Shared scan: %.0f → %.0f pages read/query (%.1f× fewer) when 4 identical queries "+
							"ride one cohort sweep instead of 4 quarter-budget solo engines** (time for all 4: %s solo, %s shared). "+
							"The ISSUE 8 acceptance measurement (<1.5× a single solo run's pages for a 4-query cohort) is "+
							"asserted end-to-end in TestE2ESharedScanSublinearPages.\n\n",
						sp, cp, sp/cp, humanNs(solo4.nsPerOp), humanNs(shared4.nsPerOp)))
				}
			}
			var plainAdaptive, compressed row
			for _, r := range groups[top] {
				switch {
				case strings.HasSuffix(r.name, "/adaptive"):
					plainAdaptive = r
				case strings.HasSuffix(r.name, "/compressed"):
					compressed = r
				}
			}
			if pb, ok1 := rowMetric(plainAdaptive, "bytes/edge"); ok1 {
				if cb, ok2 := rowMetric(compressed, "bytes/edge"); ok2 && cb > 0 {
					b.WriteString(fmt.Sprintf(
						"**Compression: %.2f → %.2f bytes/edge on disk (%.1f× smaller; acceptance floor: 2×)** "+
							"with the compressed-domain kernels running at %s vs %s plain — the encoding's "+
							"page savings carry no enumeration penalty because hub lists are intersected "+
							"without being decoded.\n\n",
						pb, cb, pb/cb, humanNs(compressed.nsPerOp), humanNs(plainAdaptive.nsPerOp)))
				}
			}
			if pw, ok1 := rowMetric(plainAdaptive, "windows/run"); ok1 {
				if cw, ok2 := rowMetric(compressed, "windows/run"); ok2 && pw > 0 {
					b.WriteString(fmt.Sprintf(
						"**Windows per run: %.0f plain → %.0f compressed** (acceptance: no worse) — "+
							"fewer pages per list means the same buffer budget covers at least as wide "+
							"a window partition.\n\n",
						pw, cw))
				}
			}
		}
	}
	return b.String()
}

// rowMetric extracts a named custom metric from a row's extra fields.
func rowMetric(r row, name string) (float64, bool) {
	for i, f := range r.extra {
		if f == name && i > 0 {
			var v float64
			if _, err := fmt.Sscanf(r.extra[i-1], "%f", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// bookRows extracts the benchmark names recorded in an existing book (the
// backtick-quoted first column of its tables).
var bookRow = regexp.MustCompile("^\\| `(Benchmark[^`]+)` \\|")

func bookRows(book string) []string {
	var names []string
	sc := bufio.NewScanner(strings.NewReader(book))
	for sc.Scan() {
		if m := bookRow.FindStringSubmatch(sc.Text()); m != nil {
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	return names
}

func main() {
	write := flag.Bool("write", false, "run the bench suite and regenerate the book")
	check := flag.Bool("check", false, "run the suite once and fail if the committed book is stale")
	input := flag.String("input", "", "render from captured `go test -bench` output instead of running it")
	out := flag.String("out", "docs/BENCHMARKS.md", "book path")
	rawOut := flag.String("raw", "", "also save the raw bench output here (for CI artifacts)")
	flag.Parse()
	if !*write && !*check && *input == "" {
		fmt.Fprintln(os.Stderr, "usage: benchbook -write | -check | -input raw.txt  [-out docs/BENCHMARKS.md] [-raw out.txt]")
		os.Exit(2)
	}

	var raw string
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		raw = string(b)
	} else {
		args := append([]string{}, benchCmd[1:]...)
		if *check {
			// One iteration per benchmark: -check cares about the set of
			// rows, not stable timings, and CI machines are slow.
			for i, a := range args {
				if a == "-benchtime" {
					args[i+1] = "1x"
				}
			}
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "benchbook: running %s %s\n", benchCmd[0], strings.Join(args, " "))
		cmd := exec.Command(benchCmd[0], args...)
		b, err := cmd.CombinedOutput()
		raw = string(b)
		if err != nil {
			fmt.Fprint(os.Stderr, raw)
			fatal(fmt.Errorf("bench run failed: %w", err))
		}
		fmt.Fprintf(os.Stderr, "benchbook: bench suite completed in %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *rawOut != "" {
		if err := os.WriteFile(*rawOut, []byte(raw), 0o644); err != nil {
			fatal(err)
		}
	}

	rows, env := parseBench(raw)
	if len(rows) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed from output"))
	}
	book := render(rows, env)

	if *check {
		committed, err := os.ReadFile(*out)
		if err != nil {
			fatal(fmt.Errorf("%s missing — run `make bench-book` and commit it: %w", *out, err))
		}
		want := bookRows(book)
		got := bookRows(string(committed))
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			fmt.Fprintf(os.Stderr, "benchbook: %s is stale.\n  code produces: %v\n  book records:  %v\nRun `make bench-book` and commit the result.\n",
				*out, want, got)
			os.Exit(1)
		}
		fmt.Printf("benchbook: %s is fresh (%d rows)\n", *out, len(got))
		return
	}

	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	if err := os.WriteFile(*out, []byte(book), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchbook: wrote %s (%d rows)\n", *out, len(rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchbook:", err)
	os.Exit(1)
}
