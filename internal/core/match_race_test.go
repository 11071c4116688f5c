package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dualsim/internal/graph"
)

// TestAdjOfDataUnsealedWindowContract pins the invariant behind the
// loadWindow data-race fix: a matcher created for a still-loading window
// (extMapPage sets pageAdj when lw.sealed is unset) must never read
// lw.adj — not even on a lookup miss — because load callbacks of other
// pages are writing that map under their own mutex. The test runs a
// concurrent writer exactly like loadWindow's onPage and exercises every
// adjOfData resolution path; the seed's fallthrough to m.lw.adj[v] makes
// this fail under -race.
func TestAdjOfDataUnsealedWindowContract(t *testing.T) {
	lw := &levelWindow{adj: make(map[graph.VertexID][]graph.VertexID)}
	outer := &levelWindow{adj: map[graph.VertexID][]graph.VertexID{7: {1, 2}}}
	outer.sealed.Store(true)
	r := &run{k: 2, winData: []*levelWindow{outer, lw}}
	m := &matcher{
		r:       r,
		lw:      lw,
		lastV:   9,
		lastAdj: []graph.VertexID{1},
		pageAdj: map[graph.VertexID][]graph.VertexID{3: {4, 5}},
	}

	// Concurrent load callback: lw.adj is written under loadWindow's local
	// mutex, which the matcher does not (and must not need to) hold.
	var mu sync.Mutex
	done := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			lw.adj[graph.VertexID(i%64)] = []graph.VertexID{graph.VertexID(i)}
			mu.Unlock()
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started // the writer is live: every lookup below overlaps its writes

	for i := 0; i < 20000; i++ {
		if adj := m.adjOfData(9); len(adj) != 1 {
			t.Fatalf("lastV lookup = %v", adj)
		}
		if adj := m.adjOfData(7); len(adj) != 2 {
			t.Fatalf("outer-window lookup = %v", adj)
		}
		if adj := m.adjOfData(3); len(adj) != 2 {
			t.Fatalf("own-page lookup = %v", adj)
		}
		// The interesting case: a vertex on no resolved source. Pre-seal the
		// only legal answer is "unknown" (nil); consulting lw.adj here is the
		// race the fix removed.
		if adj := m.adjOfData(42); adj != nil {
			t.Fatalf("unsealed miss returned %v", adj)
		}
	}
	close(done)
	wg.Wait()
}

// TestExtMapPageLoadRace is the regression test for the loadWindow data
// race: on the last level, extMapPage tasks are submitted as soon as their
// page lands, while later pages' load callbacks are still writing lw.adj.
// The seed read lw.adj from those tasks without holding the load mutex;
// now a task that starts before the window is sealed restricts itself to
// its own page's complete records. Multiple I/O workers plus per-page
// latency stagger the callbacks so the overlap actually happens. Run with
// -race.
func TestExtMapPageLoadRace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := skewedGraph(rng, 500, 6, 150)
	db := buildDB(t, g, 256) // small pages: many load callbacks per window
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	e, err := NewEngine(db, Options{
		Threads:        4,
		IOWorkers:      4,
		BufferFrames:   96,
		PerPageLatency: 20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		got, err := e.Count(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: engine %d, brute force %d", i, got, want)
		}
	}
}
