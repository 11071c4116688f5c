package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// fixture is a seeded graph and the database format it is stored in.
// Sizes were chosen so one run measures several passes of the query mix
// on two cores, and so the brute-force oracle stays within seconds.
type fixture struct {
	gen      func(seed int64) *graph.Graph
	pageSize int
	compress bool
}

var (
	// USPatents stand-in: sparse, few matches; 105 pages of 1 KiB.
	sparseER = fixture{func(s int64) *graph.Graph { return gen.ErdosRenyi(2000, 10000, s) }, 1024, false}
	// Skewed degrees: 12 hubs over 1500 random neighbours each; compressed,
	// about 60 pages of 4 KiB.
	plantedHubs = fixture{func(s int64) *graph.Graph { return gen.PlantedHubs(12000, 12, 1500, s) }, 4096, true}
	// LiveJournal stand-in: preferential attachment, about 40 pages of 4 KiB.
	prefAttach = fixture{func(s int64) *graph.Graph { return gen.BarabasiAlbert(2000, 9, s) }, 4096, false}
)

// open generates the graph, builds the database under dir and opens it.
// It returns the time spent in storage.BuildFromGraph.
func (f fixture) open(dir string, seed int64) (*storage.DB, time.Duration, error) {
	g := f.gen(seed)
	path := filepath.Join(dir, "graph.db")
	t0 := time.Now()
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: f.pageSize, Compress: f.compress, TempDir: dir}); err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	build := time.Since(t0)
	db, err := storage.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	return db, build, nil
}

// repeatSetup runs setup several times (see minSetups), each in a fresh
// directory after a collection, and
// records the medians of its CPU time (setup_s) and of its build's wall
// time (storage.build_s). Every result but the last is released.
func repeatSetup[T any](o options, r *report, setup func(dir string) (T, time.Duration, error), release func(T)) (T, error) {
	var kept T
	var totals, builds []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			release(kept)
		}
		runtime.GC()
		dir, err := os.MkdirTemp(o.work, "setup-")
		if err != nil {
			return kept, err
		}
		c0 := cpuTime()
		v, build, err := setup(dir)
		if err != nil {
			return kept, err
		}
		used := cpuTime() - c0
		spent += used
		totals = append(totals, seconds(used))
		builds = append(builds, seconds(build))
		kept = v
	}
	r.metrics["setup_s"] = median(totals)
	r.metrics["storage.build_s"] = median(builds)
	return kept, nil
}

func mustQueries(names ...string) []*graph.Query {
	qs := make([]*graph.Query, len(names))
	for i, n := range names {
		q, err := graph.QueryByName(n)
		if err != nil {
			panic(err)
		}
		qs[i] = q
	}
	return qs
}

// bruteForce counts each query on g with graph.BruteForceCount, two at a
// time. It is the oracle every reported count is checked against.
func bruteForce(g *graph.Graph, qs []*graph.Query) []uint64 {
	out := make([]uint64, len(qs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, q := range qs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *graph.Query) {
			defer wg.Done()
			out[i] = graph.BruteForceCount(g, q, graph.SymmetryBreak(q))
			<-sem
		}(i, q)
	}
	wg.Wait()
	return out
}

// heapPeak samples the heap in use every millisecond until Stop and keeps
// the peak of each heapWindow. The reported peak is the 90th percentile of
// those window peaks: one collection that happened to run late does not
// set the run's figure, while a spike that recurs, such as a compaction,
// still does.
type heapPeak struct {
	stop, done chan struct{}
	peaks      []float64
}

const heapWindow = 250 * time.Millisecond

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		start := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Since(start) >= heapWindow {
				h.peaks = append(h.peaks, float64(peak))
				peak, start = 0, time.Now()
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the 90th percentile window peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.peaks, 0.9) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not count time the host took the CPUs away (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
