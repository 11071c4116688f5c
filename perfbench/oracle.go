package main

import (
	"fmt"
	"sort"
	"sync"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
)

// verifyServed checks every served operation. An acknowledged edge batch
// moved the data from epoch e-1 to e, so replaying the batches in epoch
// order from the base graph rebuilds the graph each query saw at its
// data_epoch. Each count must equal graph.BruteForceCount there, and each
// streamed row must be an embedding of the query sent.
func verifyServed(r *report, base *graph.Graph, shapes []*graph.Query, ops []opResult) {
	var batches []opResult
	need := map[uint64]map[int]bool{} // epoch -> shapes to brute-force
	for _, op := range ops {
		r.attempted++
		if op.err != nil {
			r.fail("%s: %v", kindName(op.kind), op.err)
			continue
		}
		if op.kind == opIngest {
			batches = append(batches, op)
			continue
		}
		e := op.reply.DataEpoch
		if need[e] == nil {
			need[e] = map[int]bool{}
		}
		need[e][op.shape] = true
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].ingest.Epoch < batches[j].ingest.Epoch })
	for i, b := range batches {
		if b.ingest.Epoch != uint64(i+1) || b.ingest.Applied != len(b.ops) {
			r.fail("edge batch %d acknowledged epoch %d with %d ops applied, want epoch %d with %d", i, b.ingest.Epoch, b.ingest.Applied, i+1, len(b.ops))
			return
		}
	}

	// Walk the epochs once, snapshotting the graph where a reply needs it.
	type job struct {
		epoch uint64
		g     *graph.Graph
	}
	graphs := map[uint64]*graph.Graph{}
	var jobs []job
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range base.EdgeList() {
		edges[e] = true
	}
	epochs := sortedEpochs(need)
	next := 0
	for _, e := range epochs {
		for ; next < len(batches) && uint64(next) < e; next++ {
			applyBatch(edges, batches[next].ops)
		}
		if uint64(next) != e {
			r.fail("a reply reports data epoch %d beyond the %d acknowledged batches", e, len(batches))
			continue
		}
		g := snapshot(base.NumVertices(), edges)
		graphs[e] = g
		jobs = append(jobs, job{e, g})
	}

	want := map[uint64][]uint64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, j := range jobs {
		var qs []*graph.Query
		for i, q := range shapes {
			if need[j.epoch][i] {
				qs = append(qs, q)
			} else {
				qs = append(qs, nil)
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(j job, qs []*graph.Query) {
			defer wg.Done()
			counts := make([]uint64, len(qs))
			for i, q := range qs {
				if q != nil {
					counts[i] = graph.BruteForceCount(j.g, q, graph.SymmetryBreak(q))
				}
			}
			mu.Lock()
			want[j.epoch] = counts
			mu.Unlock()
			<-sem
		}(j, qs)
	}
	wg.Wait()

	for _, op := range ops {
		if op.err != nil || op.kind == opIngest {
			continue
		}
		counts, ok := want[op.reply.DataEpoch]
		if !ok {
			continue // already failed: epoch beyond the acknowledged batches
		}
		w := counts[op.shape]
		switch op.kind {
		case opCount:
			if op.reply.Count != w {
				r.fail("%s at epoch %d: count %d, brute force %d", op.q.Name(), op.reply.DataEpoch, op.reply.Count, w)
			}
		case opStream:
			if msg := checkStream(graphs[op.reply.DataEpoch], op, w); msg != "" {
				r.fail("%s stream at epoch %d: %s", op.q.Name(), op.reply.DataEpoch, msg)
			}
		}
	}
}

// checkStream verifies a stream's rows against the graph it ran on: each
// row maps the query's vertices to distinct data vertices joined by every
// query edge, no row repeats, and the row total is the limit (truncated)
// or the full count.
func checkStream(g *graph.Graph, op opResult, want uint64) string {
	k := op.q.NumVertices()
	rows := uint64(len(op.rows) / k)
	if rows != op.reply.Rows {
		return "trailer row count differs from rows received"
	}
	if op.reply.Truncated {
		if rows != streamLimit || want < streamLimit {
			return "truncated at the wrong row count"
		}
	} else if rows != want || op.reply.Count != want {
		return "row count differs from brute force"
	}
	seen := map[string]bool{}
	for i := 0; i < len(op.rows); i += k {
		row := op.rows[i : i+k]
		for i, v := range row {
			for _, u := range row[:i] {
				if u == v {
					return "row repeats a data vertex"
				}
			}
		}
		key := fmt.Sprint(row)
		if seen[key] {
			return "row repeated"
		}
		seen[key] = true
		for _, e := range op.q.Edges() {
			if !g.HasEdge(row[e[0]], row[e[1]]) {
				return "row misses a query edge"
			}
		}
	}
	return ""
}

func applyBatch(edges map[[2]graph.VertexID]bool, ops []delta.Op) {
	for _, op := range ops {
		u, v := op.U, op.V
		if u > v {
			u, v = v, u
		}
		if op.Insert {
			edges[[2]graph.VertexID{u, v}] = true
		} else {
			delete(edges, [2]graph.VertexID{u, v})
		}
	}
}

func snapshot(n int, edges map[[2]graph.VertexID]bool) *graph.Graph {
	list := make([][2]graph.VertexID, 0, len(edges))
	for e := range edges {
		list = append(list, e)
	}
	return graph.MustNewGraph(n, list)
}

func sortedEpochs(m map[uint64]map[int]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func kindName(k opKind) string {
	return [...]string{"count", "stream", "ingest"}[k]
}
