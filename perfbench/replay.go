package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// replayRounds is how many times each replay repeats; the metric is the
// median round.
const replayRounds = 5

// replayLayers times single layers from outside, on the workload's own
// database: page parsing, buffer pins, intersection kernels, canonical
// form, planning, overlay batches, epoch stamps, compaction and shared
// sweep window loads. batches are the edge batches the run sent, or nil
// for seeded ones.
func replayLayers(o options, r *report, db *storage.DB, compressed bool, frac float64, batches [][]delta.Op) error {
	st, err := os.Stat(db.Path())
	if err != nil {
		return err
	}
	r.metrics["storage.bytes_per_edge"] = float64(st.Size()) / float64(db.NumEdges())
	g, err := db.LoadGraph()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	if batches == nil {
		for i := 0; i < 64; i++ {
			batches = append(batches, randomBatch(rng, g, 32))
		}
	}
	steps := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"storage.parse_us_per_page", func() (float64, error) { return replayParse(db, compressed) }},
		{"buffer.pin_miss_us", func() (float64, error) { return replayPins(db, compressed, r) }},
		{"graph.intersect_ns.sorted", func() (float64, error) { return replayIntersect(g, rng, r), nil }},
		{"graph.canonical_us", func() (float64, error) { return replayCanonical(rng), nil }},
		{"plan.prepare_us", replayPrepare},
		{"delta.apply_us", func() (float64, error) { return replayApply(g.NumVertices(), batches) }},
		{"storage.stamp_epoch_ms", func() (float64, error) { return replayStamp(o.work, db.Path()) }},
		{"storage.compact_s", func() (float64, error) { return replayCompact(o.work, db, compressed, batches) }},
		{"core.sweep_load_ms", func() (float64, error) { return replaySweep(db, frac) }},
	}
	for _, s := range steps {
		v, err := s.fn()
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		r.metrics[s.name] = v
	}
	return nil
}

// rounds returns the median over replayRounds of fn's per-item time, in
// the given unit.
func rounds(items int, unit time.Duration, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < replayRounds; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(unit)/float64(items))
	}
	return median(xs), nil
}

func replayParse(db *storage.DB, compressed bool) (float64, error) {
	pages := make([][]byte, db.NumPages())
	for i := range pages {
		pages[i] = make([]byte, db.PageSize())
		if err := db.ReadPageInto(storage.PageID(i), pages[i]); err != nil {
			return 0, err
		}
	}
	parse := storage.ParsePage
	if compressed {
		parse = storage.ParsePageLazy
	}
	return rounds(len(pages)*20, time.Microsecond, func() error {
		for k := 0; k < 20; k++ {
			for _, b := range pages {
				if _, err := parse(b); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// replayPins pins every page of a fresh pool twice: the first pass misses
// and reads, the second hits. It sets buffer.pin_hit_ns and returns the
// miss time in microseconds.
func replayPins(db *storage.DB, compressed bool, r *report) (float64, error) {
	n := db.NumPages()
	var miss, hit []float64
	for i := 0; i < replayRounds; i++ {
		p, err := buffer.NewPool(db, buffer.Options{Frames: n, LazyParse: compressed})
		if err != nil {
			return 0, err
		}
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			for pid := 0; pid < n; pid++ {
				if _, err := p.Pin(storage.PageID(pid)); err != nil {
					p.Close()
					return 0, err
				}
				p.Unpin(storage.PageID(pid))
			}
			d := float64(time.Since(t0)) / float64(n)
			if pass == 0 {
				miss = append(miss, d/1e3)
			} else {
				hit = append(hit, d)
			}
		}
		p.Close()
	}
	r.metrics["buffer.pin_hit_ns"] = median(hit)
	return median(miss), nil
}

// replayIntersect runs the three kernels on adjacency tuples sampled from
// the graph: two neighbours of one vertex (a pairwise candidate check)
// plus the vertex itself (a three-way one). It sets the k-way and
// compressed metrics and returns the pairwise time in nanoseconds.
func replayIntersect(g *graph.Graph, rng *rand.Rand, r *report) float64 {
	type tuple struct {
		a, b, c []graph.VertexID
		comp    graph.CompressedAdj
	}
	var ts []tuple
	for len(ts) < 2000 {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		adj := g.Adj(v)
		if len(adj) < 2 {
			continue
		}
		u, w := adj[rng.Intn(len(adj))], adj[rng.Intn(len(adj))]
		if u == w {
			continue
		}
		b := g.Adj(w)
		payload, skips := graph.AppendCompressed(nil, b)
		comp, err := graph.ParseCompressed(payload, len(b), skips)
		if err != nil {
			panic(err) // AppendCompressed output always parses
		}
		ts = append(ts, tuple{g.Adj(u), b, adj, comp})
	}
	dst := make([]graph.VertexID, 0, g.MaxDegree())
	ar := graph.NewArena()
	sink := 0
	sorted, _ := rounds(len(ts), time.Nanosecond, func() error {
		for _, t := range ts {
			sink += len(graph.IntersectSorted(t.a, t.b, dst[:0]))
		}
		return nil
	})
	r.metrics["graph.intersect_ns.kway"], _ = rounds(len(ts), time.Nanosecond, func() error {
		for _, t := range ts {
			sink += len(ar.IntersectK(0, [][]graph.VertexID{t.a, t.b, t.c}))
		}
		return nil
	})
	r.metrics["graph.intersect_ns.compressed"], _ = rounds(len(ts), time.Nanosecond, func() error {
		for _, t := range ts {
			sink += len(graph.IntersectCompressed(t.a, t.comp, dst[:0], nil))
		}
		return nil
	})
	kernelSink = sink
	return sorted
}

// kernelSink keeps the kernel results live so the replay loops are not
// optimised away.
var kernelSink int

// replayCanonical computes the canonical code of every catalog query and
// of random relabellings of each, as the server does per request.
func replayCanonical(rng *rand.Rand) float64 {
	var qs []*graph.Query
	for _, q := range graph.PaperQueries() {
		for i := 0; i < 8; i++ {
			qs = append(qs, relabel(q, rng))
		}
	}
	v, _ := rounds(len(qs)*10, time.Microsecond, func() error {
		for k := 0; k < 10; k++ {
			for _, q := range qs {
				graph.CanonicalCode(q)
			}
		}
		return nil
	})
	return v
}

func replayPrepare() (float64, error) {
	qs := graph.PaperQueries()
	return rounds(len(qs)*10, time.Microsecond, func() error {
		for k := 0; k < 10; k++ {
			for _, q := range qs {
				if _, err := plan.Prepare(q, plan.Options{}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// replayApply applies the batches to a fresh overlay store and returns the
// median microseconds per batch.
func replayApply(n int, batches [][]delta.Op) (float64, error) {
	var xs []float64
	for i := 0; i < replayRounds; i++ {
		st := delta.NewStore(n, 0)
		for _, b := range batches {
			t0 := time.Now()
			if _, err := st.Apply(b); err != nil {
				return 0, err
			}
			xs = append(xs, float64(time.Since(t0))/1e3)
		}
	}
	return median(xs), nil
}

// replayStamp stamps epochs into a copy of the database file (each stamp
// is a synced superblock write).
func replayStamp(work, path string) (float64, error) {
	cp := filepath.Join(work, "stamp.db")
	defer os.Remove(cp)
	if err := copyFile(path, cp); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 1; i <= 20; i++ {
		t0 := time.Now()
		if err := storage.StampEpoch(cp, uint64(i)); err != nil {
			return 0, err
		}
		xs = append(xs, millis(time.Since(t0)))
	}
	return median(xs), nil
}

// replayCompact folds an overlay of the batches into a fresh file.
func replayCompact(work string, db *storage.DB, compressed bool, batches [][]delta.Op) (float64, error) {
	st := delta.NewStore(db.NumVertices(), 0)
	for _, b := range batches {
		if _, err := st.Apply(b); err != nil {
			return 0, err
		}
	}
	snap := st.Snapshot()
	dst := filepath.Join(work, "compact.db")
	defer os.Remove(dst)
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := storage.Compact(dst, db, snap.Apply, snap.Epoch(), storage.BuildOptions{Compress: compressed, TempDir: work}); err != nil {
			return 0, err
		}
		xs = append(xs, seconds(time.Since(t0)))
		os.Remove(dst)
	}
	return median(xs), nil
}

// replaySweep loads every level-1 window of a shared sweep, on a fresh
// engine each round, and returns the median milliseconds per window.
func replaySweep(db *storage.DB, frac float64) (float64, error) {
	var xs []float64
	for i := 0; i < replayRounds; i++ {
		eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFraction: frac})
		if err != nil {
			return 0, err
		}
		sw, err := eng.NewSweep(core.SweepOptions{})
		if err != nil {
			eng.Close()
			return 0, err
		}
		for w := 0; w < sw.Windows(); w++ {
			t0 := time.Now()
			win, err := sw.Load(context.Background(), w, -1)
			if err != nil {
				sw.Close()
				eng.Close()
				return 0, err
			}
			sw.Release(win)
			xs = append(xs, millis(time.Since(t0)))
		}
		sw.Close()
		eng.Close()
	}
	return median(xs), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// randomBatch returns size edge mutations, three inserts of random vertex
// pairs to one delete of a random edge of g.
func randomBatch(rng *rand.Rand, g *graph.Graph, size int) []delta.Op {
	n := g.NumVertices()
	ops := make([]delta.Op, 0, size)
	for len(ops) < size {
		if rng.Intn(4) == 0 {
			u := graph.VertexID(rng.Intn(n))
			adj := g.Adj(u)
			if len(adj) == 0 {
				continue
			}
			ops = append(ops, delta.Op{U: u, V: adj[rng.Intn(len(adj))]})
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		ops = append(ops, delta.Op{Insert: true, U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	return ops
}

// relabel returns q with its vertices permuted and its edges shuffled: an
// isomorphic query the server must answer from the same cached plan.
func relabel(q *graph.Query, rng *rand.Rand) *graph.Query {
	perm := rng.Perm(q.NumVertices())
	edges := make([][2]int, 0, q.NumEdges())
	for _, e := range q.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.MustNewQuery(q.Name(), q.NumVertices(), edges)
}
