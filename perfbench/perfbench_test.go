package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/server"
	"dualsim/internal/storage"
)

func openTestDB(t *testing.T) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	g := gen.ErdosRenyi(600, 3000, 3)
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 1024, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// The storage decorator must not change what the engine does: same
// counts, same page traffic, and it sees every physical page read.
func TestTimedDBIsTransparent(t *testing.T) {
	db := openTestDB(t)
	tdb := &timedDB{DB: db}
	for _, q := range graph.PaperQueries() {
		var res [2]*core.Result
		for i, base := range []core.Database{db, tdb} {
			eng, err := core.NewEngine(base, core.Options{Threads: 1, BufferFraction: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = eng.Run(q); err != nil {
				t.Fatal(err)
			}
			eng.Close()
		}
		plain, timed := res[0], res[1]
		if plain.Count != timed.Count || plain.IO.PhysicalReads != timed.IO.PhysicalReads || plain.IO.LogicalReads != timed.IO.LogicalReads {
			t.Errorf("%s: plain count %d, %d physical, %d logical; decorated %d, %d, %d", q.Name(),
				plain.Count, plain.IO.PhysicalReads, plain.IO.LogicalReads, timed.Count, timed.IO.PhysicalReads, timed.IO.LogicalReads)
		}
		if got := tdb.pages.Load(); got != timed.IO.PhysicalReads {
			t.Errorf("%s: decorator saw %d pages, pool read %d", q.Name(), got, timed.IO.PhysicalReads)
		}
		tdb.reset()
	}
}

func TestCollectorSelfTime(t *testing.T) {
	c := newCollector()
	for _, e := range []obs.Event{
		{Event: "window_open", Level: 1},
		{Event: "window_pinned", Level: 1, DurUS: 10},
		{Event: "window_open", Level: 2},
		{Event: "external_enum", Level: 2, DurUS: 30},
		{Event: "window_close", Level: 2, DurUS: 50},
		{Event: "window_close", Level: 1, DurUS: 100},
	} {
		c.Emit(e)
	}
	r := newReport()
	c.windowMetrics(r, 1)
	// Level 2: 50-30 = 20 us; level 1: 100-10-50 = 40 us.
	if got := r.metrics["core.window_ms"]; got != 0.060 {
		t.Errorf("window self time %v ms, want 0.060", got)
	}
	if r.metrics["core.windows.l1"] != 1 || r.metrics["core.windows.l2"] != 1 || r.metrics["core.ext_enum_ms"] != 0.030 {
		t.Errorf("windows/external wrong: %v", r.metrics)
	}
}

// A served count is checked at the epoch its reply names, after replaying
// the acknowledged batches in epoch order; a wrong one is a failure.
func TestVerifyServedReplaysEpochs(t *testing.T) {
	base := graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {1, 2}})
	tri := graph.Triangle()
	shapes := []*graph.Query{tri}
	batch := func(epoch uint64, ops ...delta.Op) opResult {
		return opResult{kind: opIngest, ops: ops, ingest: server.IngestResponse{Applied: len(ops), Epoch: epoch}}
	}
	count := func(epoch, n uint64) opResult {
		return opResult{kind: opCount, q: tri, reply: server.QueryResponse{Count: n, DataEpoch: epoch}}
	}
	ops := []opResult{
		batch(2, delta.Op{U: 1, V: 2}),               // epoch 2: the triangle loses 1-2
		batch(1, delta.Op{Insert: true, U: 0, V: 2}), // epoch 1: closes 0-1-2
		count(0, 0), count(1, 1), count(2, 0),
	}
	r := newReport()
	verifyServed(r, base, shapes, ops)
	if r.failed != 0 || r.attempted != 5 {
		t.Fatalf("correct replies: %d of %d failed: %v", r.failed, r.attempted, r.problems)
	}
	r = newReport()
	verifyServed(r, base, shapes, append(ops, count(2, 1)))
	if r.failed != 1 {
		t.Fatalf("a wrong count at epoch 2 gave %d failures, want 1", r.failed)
	}
}

// BENCHMARK.json and the metric tables here must name the same metrics.
func TestBenchmarkFileMatchesMetricDefs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the harness", w.Name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the harness %d", len(c.file), len(c.defs))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: file %s [%s], harness %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
