package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
)

// TestOrderRange pins the edge cases of the interval the total order
// leaves to a position: bounds at either end of the ID space must come out
// empty rather than wrap around.
func TestOrderRange(t *testing.T) {
	m := &matcher{r: &run{k: 3}, pos2v: make([]graph.VertexID, 3)}
	set := func(vals map[int]graph.VertexID) {
		m.posMask = 0
		for p, v := range vals {
			m.assign(p, v)
		}
	}
	for _, tc := range []struct {
		name   string
		pos    int
		vals   map[int]graph.VertexID
		lo, hi graph.VertexID
		empty  bool
	}{
		{name: "nothing assigned", pos: 1, lo: 0, hi: maxVertexID},
		{name: "only pos itself", pos: 1, vals: map[int]graph.VertexID{1: 7}, lo: 0, hi: maxVertexID},
		{name: "both sides", pos: 1, vals: map[int]graph.VertexID{0: 3, 2: 9}, lo: 4, hi: 8},
		{name: "lower only", pos: 2, vals: map[int]graph.VertexID{0: 3, 1: 5}, lo: 6, hi: maxVertexID},
		{name: "upper only", pos: 0, vals: map[int]graph.VertexID{1: 5, 2: 9}, lo: 0, hi: 4},
		{name: "adjacent bounds", pos: 1, vals: map[int]graph.VertexID{0: 4, 2: 5}, empty: true},
		{name: "upper bound zero", pos: 0, vals: map[int]graph.VertexID{1: 0}, empty: true},
		{name: "lower bound max ID", pos: 2, vals: map[int]graph.VertexID{1: maxVertexID}, empty: true},
		{name: "max ID below, zero above", pos: 1, vals: map[int]graph.VertexID{0: maxVertexID, 2: 0}, empty: true},
		{name: "conflicting bounds", pos: 1, vals: map[int]graph.VertexID{0: 10, 2: 5}, empty: true},
	} {
		set(tc.vals)
		lo, hi := m.orderRange(tc.pos)
		if tc.empty {
			if lo <= hi {
				t.Errorf("%s: orderRange(%d) = [%d, %d], want empty", tc.name, tc.pos, lo, hi)
			}
			continue
		}
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: orderRange(%d) = [%d, %d], want [%d, %d]", tc.name, tc.pos, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestPoRange is TestOrderRange for the partial orders on non-red vertices:
// only constraints against mapped query vertices bound the interval.
func TestPoRange(t *testing.T) {
	// Query vertex 1 must lie above 0 and below 2.
	p := &plan.Plan{PO: []graph.PartialOrder{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}}}
	m := &matcher{r: &run{p: p}, mapping: make([]graph.VertexID, 3)}
	set := func(vals map[int]graph.VertexID) {
		m.qMask = 0
		for qv, v := range vals {
			m.mapping[qv] = v
			m.qMask |= 1 << uint(qv)
		}
	}
	for _, tc := range []struct {
		name   string
		vals   map[int]graph.VertexID
		lo, hi graph.VertexID
		empty  bool
	}{
		{name: "nothing mapped", lo: 0, hi: maxVertexID},
		{name: "both sides", vals: map[int]graph.VertexID{0: 3, 2: 9}, lo: 4, hi: 8},
		// mapping[2] still holds 9 here: without its qMask bit it must not count.
		{name: "lower only", vals: map[int]graph.VertexID{0: 3}, lo: 4, hi: maxVertexID},
		{name: "upper only", vals: map[int]graph.VertexID{2: 9}, lo: 0, hi: 8},
		{name: "upper bound zero", vals: map[int]graph.VertexID{2: 0}, empty: true},
		{name: "lower bound max ID", vals: map[int]graph.VertexID{0: maxVertexID}, empty: true},
		{name: "conflicting bounds", vals: map[int]graph.VertexID{0: 10, 2: 5}, empty: true},
	} {
		set(tc.vals)
		lo, hi := m.poRange(1)
		if tc.empty {
			if lo <= hi {
				t.Errorf("%s: poRange = [%d, %d], want empty", tc.name, lo, hi)
			}
			continue
		}
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: poRange = [%d, %d], want [%d, %d]", tc.name, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestOrderRangeEmptySkipsKernel checks that an internal descent whose
// order interval is empty returns before intersecting, and that a
// non-empty interval yields exactly the clipped candidates.
func TestOrderRangeEmptySkipsKernel(t *testing.T) {
	// Three positions, all pairwise adjacent; position 1 is matched last.
	p := &plan.Plan{
		K:             3,
		MatchingOrder: []int{0, 2, 1},
		RBI:           &rbi.Graph{},
		Groups: []*plan.VGroup{{
			Topology:  1<<(0*3+1) | 1<<(0*3+2) | 1<<(1*3+2),
			Sequences: [][]int{{0, 1, 2}},
		}},
	}
	all := []graph.VertexID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	lw := &levelWindow{
		lo: 0, hi: 20,
		verts: [][]graph.VertexID{all},
		adj:   map[graph.VertexID][]graph.VertexID{5: all, 10: all},
	}
	r := &run{k: 3, p: p}
	for _, tc := range []struct {
		name       string
		low, high  graph.VertexID
		wantEmbeds uint64
	}{
		{"consistent", 5, 10, 4}, // 6, 7, 8, 9
		{"conflicting", 10, 5, 0},
	} {
		m := &matcher{r: r, lw: lw, internal: true, arena: graph.NewArena(),
			pos2v: make([]graph.VertexID, 3), mapping: make([]graph.VertexID, 3)}
		m.assign(0, tc.low)
		m.assign(2, tc.high)
		r.intDescend(m, 2)
		st := m.arena.TakeStats()
		kernels := st.Linear + st.Gallop + st.KWay
		if m.localInternal != tc.wantEmbeds {
			t.Errorf("%s: %d embeddings, want %d", tc.name, m.localInternal, tc.wantEmbeds)
		}
		if tc.wantEmbeds == 0 && kernels != 0 {
			t.Errorf("%s: empty interval still ran %d kernels", tc.name, kernels)
		}
		if tc.wantEmbeds > 0 && kernels == 0 {
			t.Errorf("%s: no kernel ran for a non-empty interval", tc.name)
		}
	}
}

// TestClippedEmbeddingsMatchSeed compares embedding sets, not counts: an
// order-clipping error that drops one embedding and duplicates another
// leaves every count intact. Each paper query runs on the skewed fixture
// under both kernel paths, both encodings, the default and an
// external-heavy buffer, the worst matching order and the MVC cover; every
// configuration must report the seed path's embeddings exactly once each.
// The paper queries give non-red vertices lower bounds only on ivory
// vertices, so the 3-vertex path adds two black vertices bounded by the
// partial orders, and the MVC cover adds bounds to the square's ivory pair.
func TestClippedEmbeddingsMatchSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := skewedGraph(rng, 400, 6, 120)
	rg, _ := graph.ReorderByDegree(g)
	dbs := []struct {
		name string
		db   Database
	}{
		{"plain", buildDB(t, g, 512)},
		{"compressed", buildCompressedDB(t, g, 512)},
	}
	type config struct {
		buffer int
		worst  bool
		cover  rbi.CoverMode
	}
	configs := []config{{}, {buffer: 12}, {buffer: 12, worst: true}, {buffer: 12, cover: rbi.MVC}}
	queries := append(graph.PaperQueries(), graph.Path("p3", 3))

	embeddings := func(db Database, opt Options, q *graph.Query) [][]graph.VertexID {
		t.Helper()
		p, err := plan.Prepare(q, plan.Options{CoverMode: opt.CoverMode, WorstOrder: opt.WorstOrder})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var mu sync.Mutex
		var out [][]graph.VertexID
		if _, err := e.RunPlanContextFunc(context.Background(), p, func(m []graph.VertexID) {
			mu.Lock()
			out = append(out, slices.Clone(m))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(out, slices.Compare[[]graph.VertexID])
		return out
	}

	for _, q := range queries {
		want := embeddings(dbs[0].db, Options{Threads: 3, LinearOnlyIntersect: true}, q)
		if n := graph.CountOccurrences(rg, q); uint64(len(want)) != n {
			t.Fatalf("%s: seed path reported %d embeddings, brute force %d", q.Name(), len(want), n)
		}
		for _, db := range dbs {
			for _, c := range configs {
				for _, linear := range []bool{false, true} {
					opt := Options{Threads: 3, BufferFrames: c.buffer, WorstOrder: c.worst, CoverMode: c.cover,
						LinearOnlyIntersect: linear}
					got := embeddings(db.db, opt, q)
					for i := 1; i < len(got); i++ {
						if slices.Equal(got[i-1], got[i]) {
							t.Fatalf("%s/%s %+v linearOnly=%v: embedding %v reported twice", db.name, q.Name(), c, linear, got[i])
						}
					}
					if !slices.EqualFunc(got, want, slices.Equal[[]graph.VertexID]) {
						t.Fatalf("%s/%s %+v linearOnly=%v: %d embeddings differ from the seed path's %d",
							db.name, q.Name(), c, linear, len(got), len(want))
					}
				}
			}
		}
	}
}
