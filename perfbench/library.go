package main

import (
	"fmt"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// libSpec is a workload run through core.NewEngine and Run.
type libSpec struct {
	fix     fixture
	frac    float64 // buffer fraction
	queries []*graph.Query
	reps    []int // runs of each query per pass, so cheap queries get samples too
	// warm keeps one engine for the whole run, warmed during set-up;
	// otherwise every query gets a fresh engine, as `dualsim run` does.
	warm bool
}

func runColdSparse(o options, r *report) error {
	return runLibrary(o, r, libSpec{fix: sparseER, frac: 0.15,
		queries: mustQueries("q1", "q2", "q3", "q4", "q5"), reps: []int{8, 1, 8, 3, 1}})
}

func runWarmSkew(o options, r *report) error {
	return runLibrary(o, r, libSpec{fix: plantedHubs, frac: 1.0,
		queries: mustQueries("q1", "q3", "q4"), reps: []int{4, 1, 2}, warm: true})
}

// libSetup is what set-up leaves for the timed phase.
type libSetup struct {
	db  *storage.DB
	eng *core.Engine // warm workloads only
}

func (s libSetup) close() {
	if s.eng != nil {
		s.eng.Close()
	}
	s.db.Close()
}

func runLibrary(o options, r *report, sp libSpec) error {
	s, err := repeatSetup(o, r, func(dir string) (libSetup, time.Duration, error) {
		db, build, err := sp.fix.open(dir, o.seed)
		if err != nil {
			return libSetup{}, 0, err
		}
		s := libSetup{db: db}
		if sp.warm {
			if s.eng, err = warmEngine(db, sp, nil); err != nil {
				db.Close()
				return libSetup{}, 0, err
			}
		}
		return s, build, nil
	}, libSetup.close)
	if err != nil {
		return err
	}
	defer s.close()
	g, err := s.db.LoadGraph()
	if err != nil {
		return err
	}
	want := bruteForce(g, sp.queries)

	if !o.trace {
		st, err := libPhase(o.seconds, sp, s.db, s.eng, nil, want, r)
		if err != nil {
			return err
		}
		st.endToEnd(r)
		return nil
	}

	plain, err := libPhase(o.seconds/2, sp, s.db, s.eng, nil, want, r)
	if err != nil {
		return err
	}
	plain.endToEnd(r)
	tdb := &timedDB{DB: s.db}
	col := newCollector()
	var eng *core.Engine
	if sp.warm {
		if eng, err = warmEngine(tdb, sp, col); err != nil {
			return err
		}
		defer eng.Close()
		tdb.reset()
		col.reset()
	}
	traced, err := libPhase(o.seconds/2, sp, tdb, eng, col, want, r)
	if err != nil {
		return err
	}
	q := float64(traced.ops)
	r.metrics["storage.read_calls"] = ratio(float64(tdb.calls.Load()), q)
	r.metrics["storage.read_pages"] = ratio(float64(tdb.pages.Load()), q)
	r.metrics["storage.read_ms"] = ratio(float64(tdb.nanos.Load())/1e6, q)
	traced.layers(r)
	col.windowMetrics(r, q)
	r.metrics["core.run_self_ms"] = ratio(col.runSelfMS(), q)
	r.metrics["core.engine_open_ms"] = ratio(millis(col.spanTotal("core.NewEngine")+col.spanTotal("core.Close")), q)
	r.metrics["obs.trace_overhead"] = traced.perOp()/plain.perOp() - 1
	col.writeSpans()
	noServer(r)
	return replayLayers(o, r, s.db, sp.fix.compress, sp.frac, nil)
}

// warmEngine opens the long-lived engine and runs every query once, so
// the timed phase finds the whole database resident.
func warmEngine(db core.Database, sp libSpec, col *collector) (*core.Engine, error) {
	eng, err := core.NewEngine(db, engineOptions(sp, col))
	if err != nil {
		return nil, err
	}
	for _, q := range sp.queries {
		if _, err := eng.Run(q); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

func engineOptions(sp libSpec, col *collector) core.Options {
	opts := core.Options{Threads: 2, BufferFraction: sp.frac}
	if col != nil {
		opts.Tracer = col
	}
	return opts
}

// libStats is one timed phase of a library workload.
type libStats struct {
	ops      int
	elapsed  time.Duration
	lat      map[string][]float64 // seconds, by catalog name (q1..q5)
	all      []float64            // milliseconds
	io       struct{ logical, physical, hits, evictions, pinWait float64 }
	ioWait   time.Duration
	prep     time.Duration
	exec     time.Duration
	counters map[string]float64 // engine registry deltas (traced phase)
	heapMB   float64
	cpu      time.Duration // process CPU time over the phase
}

// libPhase runs whole passes over the query mix until the phase has
// lasted at least secs. With col set it is the traced phase: spans around
// each call and registry deltas.
func libPhase(secs float64, sp libSpec, db core.Database, eng *core.Engine, col *collector, want []uint64, r *report) (*libStats, error) {
	st := &libStats{lat: map[string][]float64{}, counters: map[string]float64{}}
	span := func(name string, fn func() error) error { return fn() }
	if col != nil {
		span = col.span
	}
	heap := startHeapPeak()
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i, q := range sp.queries {
			for rep := 0; rep < sp.reps[i]; rep++ {
				t0 := time.Now()
				e := eng
				if !sp.warm {
					err := span("core.NewEngine", func() (err error) { e, err = core.NewEngine(db, engineOptions(sp, col)); return err })
					if err != nil {
						heap.Stop()
						return nil, err
					}
				}
				var before map[string]uint64
				if col != nil {
					before = e.Registry().Snapshot().Counters
				}
				var res *core.Result
				var err error
				if col == nil {
					res, err = e.Run(q)
				} else {
					var p *plan.Plan
					if err = span("plan.Prepare", func() (err error) { p, err = plan.Prepare(q, plan.Options{}); return err }); err == nil {
						err = span("core.Run", func() (err error) { res, err = e.RunPlan(p); return err })
					}
					if err == nil {
						for k, v := range e.Registry().Snapshot().Counters {
							st.counters[k] += float64(v - before[k])
						}
					}
				}
				if !sp.warm {
					_ = span("core.Close", func() error { e.Close(); return nil })
				}
				d := time.Since(t0)
				r.attempted++
				if err != nil {
					r.fail("%s: %v", q.Name(), err)
					continue
				}
				if res.Count != want[i] {
					r.fail("%s: count %d, brute force %d", q.Name(), res.Count, want[i])
				}
				st.ops++
				st.lat[shortName(q)] = append(st.lat[shortName(q)], seconds(d))
				st.all = append(st.all, millis(d))
				st.io.logical += float64(res.IO.LogicalReads)
				st.io.physical += float64(res.IO.PhysicalReads)
				st.io.hits += float64(res.IO.Hits)
				st.io.evictions += float64(res.IO.Evictions)
				st.io.pinWait += float64(res.IO.PinWaitNanos)
				st.ioWait += res.IOWait
				st.prep += res.PrepTime
				st.exec += res.ExecTime
			}
		}
	}
	st.elapsed, st.cpu = time.Since(start), cpuTime()-cpu0
	st.heapMB = heap.Stop()
	if st.ops == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	return st, nil
}

func (st *libStats) perOp() float64 { return seconds(st.cpu) / float64(st.ops) }

// endToEnd reports the gated metrics and the wall-clock latencies.
func (st *libStats) endToEnd(r *report) {
	for _, n := range []string{"q1", "q2", "q3", "q4", "q5"} {
		r.metrics["run_s."+n] = median(st.lat[n])
	}
	r.metrics["count_ms.p50"] = median(st.all)
	r.metrics["count_ms.p95"] = quantile(st.all, 0.95)
	r.metrics["ops_per_s"] = float64(st.ops) / seconds(st.elapsed)
	r.metrics["cpu_ms_per_op"] = millis(st.cpu) / float64(st.ops)
	r.metrics["pages_per_query"] = st.io.logical / float64(st.ops)
	r.metrics["heap_peak_mb"] = st.heapMB
	for _, n := range []string{"stream_ms.p50", "ingest_ms.p50", "ingest_ms.p90"} {
		r.metrics[n] = 0
	}
}

// layers reports the traced phase's buffer, core and kernel metrics.
func (st *libStats) layers(r *report) {
	q := float64(st.ops)
	r.metrics["buffer.logical_reads"] = st.io.logical / q
	r.metrics["buffer.physical_reads"] = st.io.physical / q
	r.metrics["buffer.hit_ratio"] = ratio(st.io.hits, st.io.logical)
	r.metrics["buffer.evictions"] = st.io.evictions / q
	r.metrics["buffer.pin_wait_ms"] = st.io.pinWait / 1e6 / q
	// Result.IO leaves the coalescing counters out; the registry has them.
	r.metrics["buffer.pages_per_coalesced_run"] = ratio(st.counters["dualsim_coalesced_pages_total"], st.counters["dualsim_coalesced_runs_total"])
	r.metrics["core.window_wait_ms"] = millis(st.ioWait) / q
	r.metrics["core.prep_us"] = float64(st.prep.Microseconds()) / q
	engineCounterMetrics(r, st.counters, q, seconds(st.exec))
}

// engineCounterMetrics reports the engine counters shared by library and served
// runs (registry deltas, or /metrics deltas on the serve workloads).
func engineCounterMetrics(r *report, c map[string]float64, queries, execSeconds float64) {
	r.metrics["graph.intersect_linear"] = ratio(c["dualsim_intersect_linear_total"], queries)
	r.metrics["graph.intersect_gallop"] = ratio(c["dualsim_intersect_gallop_total"], queries)
	r.metrics["graph.intersect_kway"] = ratio(c["dualsim_intersect_kway_total"], queries)
	r.metrics["graph.intersect_compressed"] = ratio(c["dualsim_intersect_compressed_total"], queries)
	r.metrics["core.steal_splits"] = ratio(c["dualsim_steal_splits_total"], queries)
	r.metrics["core.worker_tasks"] = ratio(c["dualsim_worker_tasks_completed_total"], queries)
	r.metrics["core.embeddings_per_s"] = ratio(c["dualsim_embeddings_total"], execSeconds)
	r.metrics["core.overlay_merged_vertices"] = ratio(c["dualsim_overlay_merged_vertices_total"], queries)
}

// noServer zeroes the metrics of layers a library workload never enters.
func noServer(r *report) {
	for _, n := range []string{
		"plan.cache_hit_ratio", "plan.cache_evictions", "delta.overlay_vertices",
		"sharedscan.riders_per_sweep", "sharedscan.shared_page_ratio", "sharedscan.fallbacks",
		"server.queue_ms", "server.prep_ms", "server.exec_ms", "server.http_ms",
		"server.rejected", "server.rows_streamed", "server.compactions",
	} {
		r.metrics[n] = 0
	}
}
