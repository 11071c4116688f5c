package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/rbi"
)

// skewedGraph plants hubs into a sparse background so adjacency-list
// lengths (and per-candidate enumeration cost) are heavily skewed — the
// fixture for work-stealing and the galloping kernel. hubs vertices are
// each wired to about span random background vertices and to each other.
func skewedGraph(rng *rand.Rand, n, hubs, span int) *graph.Graph {
	var edges [][2]graph.VertexID
	// Sparse background ring + chords.
	for v := 0; v < n-hubs; v++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID((v + 1) % (n - hubs))})
		if v%7 == 0 {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID(rng.Intn(n - hubs))})
		}
	}
	// Hubs: dense attachment into the background plus a hub clique.
	for h := 0; h < hubs; h++ {
		hv := graph.VertexID(n - hubs + h)
		for i := 0; i < span; i++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(rng.Intn(n - hubs))})
		}
		for h2 := h + 1; h2 < hubs; h2++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(n - hubs + h2)})
		}
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestAdaptiveMatchesSeedCounts runs every paper query and a skewed fixture
// through all combinations of {adaptive, seed-kernel} x {stealing, static}
// x {plain, compressed database} x {compressed-domain, eager-decode} and
// requires identical counts — the engine-level cross-check that the kernel
// rewrite, the scheduler rewrite, and the compressed-domain path change
// performance only.
func TestAdaptiveMatchesSeedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := skewedGraph(rng, 400, 6, 120)
	rg, _ := graph.ReorderByDegree(g)
	for _, db := range []struct {
		name string
		db   Database
	}{
		{"plain", buildDB(t, g, 512)},
		{"compressed", buildCompressedDB(t, g, 512)},
	} {
		for _, q := range graph.PaperQueries() {
			want := graph.CountOccurrences(rg, q)
			for _, opt := range []Options{
				{Threads: 3},
				{Threads: 3, LinearOnlyIntersect: true},
				{Threads: 3, StaticPartition: true},
				{Threads: 3, LinearOnlyIntersect: true, StaticPartition: true},
				// Decode dimension: the compressed-domain kernels and the
				// decode-at-parse ablation must agree bit for bit, on both
				// encodings and on the seed kernel path too.
				{Threads: 3, EagerDecode: true},
				{Threads: 3, EagerDecode: true, LinearOnlyIntersect: true},
				// Tight-buffer dimension: smaller buffers split every level into
				// more windows, with and without work stealing.
				{Threads: 3, BufferFrames: 96},
				{Threads: 3, BufferFrames: 128, StaticPartition: true},
				// External-order dimension, on both kernel paths (and, on the
				// compressed database, beside the compressed operand). 12
				// frames split the 16-29 page databases into dozens of
				// windows, so most matches are external; 96 would hold
				// either whole. The worst matching order reorders every
				// forest; an MVC red set is disconnected for q2 and q5, so
				// the descent reaches levels with no assigned neighbour and
				// falls back to whole-window scans.
				{Threads: 3, WorstOrder: true, BufferFrames: 12},
				{Threads: 3, WorstOrder: true, BufferFrames: 12, LinearOnlyIntersect: true},
				{Threads: 3, CoverMode: rbi.MVC, BufferFrames: 12},
				{Threads: 3, CoverMode: rbi.MVC, BufferFrames: 12, LinearOnlyIntersect: true},
			} {
				e, err := NewEngine(db.db, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Count(q)
				e.Close()
				if err != nil {
					t.Fatalf("%s/%s: %v", db.name, q.Name(), err)
				}
				if got != want {
					t.Fatalf("%s/%s (linearOnly=%v static=%v eager=%v frames=%d): engine %d, brute force %d",
						db.name, q.Name(), opt.LinearOnlyIntersect, opt.StaticPartition, opt.EagerDecode, opt.BufferFrames, got, want)
				}
			}
		}
	}
}

// TestCompressedKernelCountersExported checks that a default run on a
// compressed database exercises the compressed-domain path (records, bytes,
// in-place intersections) and that the eager-decode ablation records no
// compressed-domain kernel activity while still counting records loaded.
func TestCompressedKernelCountersExported(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := skewedGraph(rng, 400, 6, 120)
	db := buildCompressedDB(t, g, 512)

	e, err := NewEngine(db, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	if c["dualsim_compressed_records_total"] == 0 || c["dualsim_compressed_bytes_total"] == 0 {
		t.Fatalf("compressed database loaded no compressed records: %v", c)
	}
	if c["dualsim_intersect_compressed_total"] == 0 {
		t.Errorf("compressed-domain kernel never ran on a compressed database: %v", c)
	}

	e, err = NewEngine(db, Options{Threads: 2, EagerDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c = res.Metrics.Counters
	if c["dualsim_intersect_compressed_total"] != 0 {
		t.Errorf("eager decode still ran %d compressed-domain intersections", c["dualsim_intersect_compressed_total"])
	}
	if c["dualsim_compressed_records_total"] == 0 {
		t.Errorf("eager decode stopped counting compressed records loaded: %v", c)
	}
}

// TestExtDescendKWayGuard pins the connectivity-first external descent
// (plan.VGroup.ExtOrder) on the square, whose forest hangs two leaves off
// level 0. With a 10-frame buffer over 53 pages the run iterates three
// window levels (1465 windows). Descending in reverse matching order, the
// first leaf had no assigned neighbour and was drawn from a whole-window
// scan, so the second leaf paid a three-way intersection per scanned
// candidate: 596,649 k-way intersections on this fixture. Reaching level 0
// first through the last level's adjacency list leaves each leaf a pairwise
// intersection. The guard allows a fifth of the old figure.
func TestExtDescendKWayGuard(t *testing.T) {
	const reverseOrderKWay = 596649
	g := gen.ErdosRenyi(1000, 5000, 7)
	db := buildDB(t, g, 1024)
	e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(graph.Square())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.CountOccurrences(g, graph.Square()); res.Count != want {
		t.Fatalf("square: engine %d, brute force %d", res.Count, want)
	}
	c := res.Metrics.Counters
	if w := c["dualsim_windows_total"]; w < 1000 {
		t.Fatalf("fixture iterated %d windows; the guard needs many deep windows", w)
	}
	if kway := c["dualsim_intersect_kway_total"]; kway > reverseOrderKWay/5 {
		t.Errorf("external descent ran %d k-way intersections, want <= %d (reverse order: %d)",
			kway, reverseOrderKWay/5, reverseOrderKWay)
	}
}

// TestKernelCountersExported checks that a default run on the skewed
// fixture records kernel selections (including galloping, given hub-vs-ring
// skew) and that the seed path records none.
func TestKernelCountersExported(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := skewedGraph(rng, 300, 5, 100)
	db := buildDB(t, g, 512)

	e, err := NewEngine(db, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	total := c["dualsim_intersect_linear_total"] + c["dualsim_intersect_gallop_total"]
	if total == 0 {
		t.Fatalf("no kernel selections recorded: %v", c)
	}
	if c["dualsim_intersect_gallop_total"] == 0 {
		t.Errorf("skewed fixture never picked the galloping kernel: %v", c)
	}

	e, err = NewEngine(db, Options{Threads: 2, LinearOnlyIntersect: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c = res.Metrics.Counters
	if n := c["dualsim_intersect_linear_total"] + c["dualsim_intersect_gallop_total"] + c["dualsim_intersect_kway_total"]; n != 0 {
		t.Errorf("seed path recorded %d kernel selections, want 0", n)
	}
}

// TestWorkerPoolTrySubmit pins trySubmit's non-blocking contract: it must
// refuse (not block) when the channel is full, and succeed otherwise.
func TestWorkerPoolTrySubmit(t *testing.T) {
	p := newWorkerPool(1, nil, nil)
	defer p.close()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	p.submit(func() { entered.Done(); <-release })
	entered.Wait()
	// Fill the queue (capacity 4*threads = 4), then one more must refuse.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.trySubmit(func() {}) {
			accepted++
		}
	}
	if accepted == 0 || accepted >= 10 {
		t.Fatalf("trySubmit accepted %d of 10 with a blocked pool; want some refused", accepted)
	}
	close(release)
	p.drain()
}

// TestWorkerPoolHungry checks the drained-queue signal that gates splits.
func TestWorkerPoolHungry(t *testing.T) {
	p := newWorkerPool(2, nil, nil)
	defer p.close()
	p.drain()
	// All workers idle, queue empty: the pool is starving. Workers mark
	// themselves idle just after completing, so poll briefly.
	for i := 0; i < 1000 && !p.hungry(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !p.hungry() {
		t.Fatal("idle pool never reported hungry")
	}
}

// TestStealSplitsOnSkew drives a window whose internal enumeration work is
// concentrated in a few hub candidates and requires at least one
// work-stealing split to be recorded; the static ablation must record none.
func TestStealSplitsOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := skewedGraph(rng, 600, 6, 200)
	db := buildDB(t, g, 4096)

	run := func(static bool) uint64 {
		e, err := NewEngine(db, Options{Threads: 4, StaticPartition: static, BufferFrames: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Run(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Counters["dualsim_steal_splits_total"]
	}
	if n := run(true); n != 0 {
		t.Fatalf("static partitioning recorded %d splits, want 0", n)
	}
	if n := run(false); n == 0 {
		t.Log("no splits on skewed fixture (pool never drained mid-window); acceptable but unexpected")
	}
}

// TestStealCorrectUnderConcurrentLoad hammers the stealing path: many runs
// on a skewed fixture with more threads than work, checking the count every
// time (a lost or double-counted split would show up as a wrong total).
func TestStealCorrectUnderConcurrentLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := skewedGraph(rng, 250, 4, 80)
	db := buildDB(t, g, 512)
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	e, err := NewEngine(db, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var bad atomic.Int64
	for i := 0; i < 20; i++ {
		got, err := e.Count(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			bad.Add(1)
		}
	}
	if bad.Load() > 0 {
		t.Fatalf("%d of 20 runs produced wrong counts (want %d each)", bad.Load(), want)
	}
}
