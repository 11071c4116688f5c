package sharedscan

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

func buildDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: pageSize, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.MustNewGraph(n, edges)
}

func mustPlan(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// soloBaseline runs each query once on a fresh engine and returns counts
// plus the physical reads of a single solo run of queries[0].
func soloBaseline(t *testing.T, db *storage.DB, frames int, queries []*graph.Query) (map[string]uint64, uint64) {
	t.Helper()
	counts := make(map[string]uint64)
	var firstPages uint64
	for i, q := range queries {
		e, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: frames})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(q)
		if err != nil {
			t.Fatalf("solo %s: %v", q.Name(), err)
		}
		counts[q.Name()] = res.Count
		if i == 0 {
			firstPages = e.PoolStats().PhysicalReads
		}
		e.Close()
	}
	return counts, firstPages
}

// TestSchedulerConcurrentCountsMatchSolo runs a mixed batch of concurrent
// queries through the scheduler and checks every count is bit-identical to
// its solo baseline, the cohort counters move, and the attribution
// invariant holds (sweep scope owns exactly the pool's physical reads).
func TestSchedulerConcurrentCountsMatchSolo(t *testing.T) {
	const frames = 96
	g := randomGraph(42, 2000, 8000)
	db := buildDB(t, g, 256)
	queries := []*graph.Query{graph.Triangle(), graph.Square(), graph.House()}
	solo, _ := soloBaseline(t, db, frames, queries)

	eng, err := core.NewEngine(db, core.Options{Threads: 4, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	reg := obs.NewRegistry()
	sched := New(eng, Options{MaxRiders: 4, FormationWait: 25 * time.Millisecond, Metrics: reg})
	defer sched.Close()

	const n = 9 // 3 waves of 3 shapes — exercises late join and re-admission
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			results[i], errs[i] = sched.Run(context.Background(),
				core.RunSpec{Plan: mustPlan(t, q), Scope: obs.NewScope("")})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rider %d: %v", i, errs[i])
		}
		name := queries[i%len(queries)].Name()
		if results[i].Count != solo[name] {
			t.Errorf("rider %d (%s): count %d, solo %d", i, name, results[i].Count, solo[name])
		}
	}
	st := sched.Stats()
	if st.RidersTotal != n {
		t.Errorf("riders_total = %d, want %d", st.RidersTotal, n)
	}
	if st.ActiveRiders != 0 {
		t.Errorf("active_riders = %d after drain, want 0", st.ActiveRiders)
	}
	if st.Sweeps == 0 || st.SharedWindows == 0 || st.SharedPages == 0 {
		t.Errorf("cohort counters did not move: %+v", st)
	}
	if got, want := st.SweepPagesRead, eng.PoolStats().PhysicalReads; got != want {
		t.Errorf("sweep-owned pages_read = %d, pool physical reads = %d", got, want)
	}
}

// TestSchedulerSharedReadsSublinear is the paper's amortization claim at
// the scheduler level: 4 identical concurrent queries through one cohort
// must cost < 1.5x the physical reads of a single solo run. The frame
// budget here is the serving deployment's: the cohort engine holds the
// UNDIVIDED global budget (what N solo engines would have split N ways),
// so the level-1 sweep is read once and the riders' deep-level reads land
// on resident pages. (With a budget far below the working set, per-rider
// deep re-reads dominate and sharing only the level-1 scan cannot reach
// 1.5x — that regime is covered by the counts-match tests above.)
func TestSchedulerSharedReadsSublinear(t *testing.T) {
	const frames = 640 // fixture is 394 pages; level-1 budget still splits the cycle
	g := randomGraph(7, 2000, 8000)
	db := buildDB(t, g, 256)
	tri := graph.Triangle()
	solo, soloPages := soloBaseline(t, db, frames, []*graph.Query{tri})
	if soloPages == 0 {
		t.Fatal("solo run read no pages; fixture too small")
	}

	eng, err := core.NewEngine(db, core.Options{Threads: 4, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sched := New(eng, Options{MaxRiders: 4, FormationWait: 50 * time.Millisecond})
	defer sched.Close()

	const n = 4
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sched.Run(context.Background(), core.RunSpec{Plan: mustPlan(t, tri)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rider %d: %v", i, errs[i])
		}
		if results[i].Count != solo[tri.Name()] {
			t.Errorf("rider %d: count %d, solo %d", i, results[i].Count, solo[tri.Name()])
		}
	}
	cohortPages := eng.PoolStats().PhysicalReads
	if float64(cohortPages) >= 1.5*float64(soloPages) {
		t.Errorf("4 cohorted queries read %d pages, solo run reads %d: %.2fx >= 1.5x",
			cohortPages, soloPages, float64(cohortPages)/float64(soloPages))
	}
	t.Logf("pages: solo=%d cohort-4q=%d (%.2fx)", soloPages, cohortPages,
		float64(cohortPages)/float64(soloPages))
}

// TestSchedulerLifecycle covers the edges: a resume spec rides (a terminal
// checkpoint settles with its own totals, a mismatched one fails as a bad
// checkpoint rather than bouncing to solo), a cancelled waiter leaves the
// queue cleanly, and Close refuses new work.
func TestSchedulerLifecycle(t *testing.T) {
	g := randomGraph(3, 500, 2000)
	db := buildDB(t, g, 256)
	eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sched := New(eng, Options{MaxRiders: 2})
	tri := mustPlan(t, graph.Triangle())

	terminal := &core.Checkpoint{K: tri.K, Cursor: db.NumVertices(), Windows: 1, Internal: 7}
	if res, err := sched.Run(context.Background(), core.RunSpec{Plan: tri, Resume: terminal}); err != nil ||
		!res.Resumed || res.Count != 7 {
		t.Fatalf("terminal resume: res=%+v err=%v, want the checkpoint's count 7", res, err)
	}
	if _, err := sched.Run(context.Background(),
		core.RunSpec{Plan: tri, Resume: &core.Checkpoint{}}); !errors.Is(err, core.ErrBadCheckpoint) {
		t.Fatalf("mismatched resume: err = %v, want ErrBadCheckpoint", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sched.Run(ctx, core.RunSpec{Plan: tri}); err == nil {
		t.Fatal("dead-context run succeeded")
	}

	// A normal run still works after the above.
	if res, err := sched.Run(context.Background(), core.RunSpec{Plan: tri}); err != nil || res == nil {
		t.Fatalf("post-noise run: %v", err)
	}

	sched.Close()
	if _, err := sched.Run(context.Background(), core.RunSpec{Plan: tri}); !errors.Is(err, ErrNotEligible) {
		t.Fatalf("closed scheduler: err = %v, want ErrNotEligible", err)
	}
	sched.Close() // idempotent
}
