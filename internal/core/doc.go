// Copyright of the reproduced design belongs to the DUALSIM authors (Kim
// et al., SIGMOD 2016); this package is an independent implementation.
//
// # How the engine maps to the paper
//
// Algorithm 1 (DUALSIM) corresponds to Engine.RunPlan, which drives a
// private Sweep (level 1) carrying one Rider (sweep.go):
//
//	Lines 1-5  (preparation)            -> plan.Prepare (package plan)
//	Line 6     (init candidate seqs)    -> RunPlan's candSeq{full:true} for
//	                                       every forest root
//	Lines 7-10 (async level-1 window)   -> Sweep.Load / Engine.fillWindow:
//	                                       AsyncRead per page run; the
//	                                       callback merges records
//	                                       (COMPUTECANDIDATESEQUENCES' data
//	                                       side) while later reads proceed
//	Line 13    (delegate external)      -> run.processLevel(l+1), with
//	                                       last-level page tasks submitted
//	                                       to the shared worker pool
//	Line 14    (internal enumeration)   -> Rider.ProcessWindow:
//	                                       run.dispatchInternal +
//	                                       run.internalEnumerate
//	Thread morphing                     -> one workerPool executes both
//	                                       internal and external tasks, so
//	                                       idle workers drain whichever kind
//	                                       remains
//	Lines 15-16 (unpin, clear)          -> Sweep.Release,
//	                                       run.clearChildCandidates
//
// Algorithm 2 (DELEGATEEXTERNALSUBGRAPHENUMERATION) is processLevel for
// l >= 1: iterate merged windows, recurse until the last level, then match.
//
// Algorithm 3 (COMPUTECANDIDATESEQUENCES) is split between loadWindow
// (collecting each window vertex's adjacency list) and
// computeChildCandidates (projecting those lists into per-child candidate
// vertex sequences with the Lemma 1 order pruning: a child position after
// its parent's position only admits larger neighbors, and vice versa).
//
// Algorithms 4-5 (EXTVERTEXMAPPING / RECEXTVERTEXMAPPING) are extMapPage /
// extDescend in match.go: the last level's vertex comes from the freshly
// loaded page, and the remaining levels are matched in the v-group's
// plan.VGroup.ExtOrder, each candidate drawn from the intersection of the
// node's current window with the adjacency lists of assigned neighbours
// and bounded by the total order. ExtOrder departs from the paper's
// reverse matching order: each step takes the level with the most edges to
// assigned positions, so a whole window is scanned only for a true
// Cartesian step (a disconnected red set, as an MVC cover can give), not
// for a sibling whose neighbour comes later. Window
// membership, the total order and the internal-dedup check do not depend on
// the order, so it enumerates the same assignments, each once. A complete
// position assignment expands into
// one embedding per full-order query sequence of the v-group
// (expandSequences), after which matchNonRed assigns black vertices by
// scanning one red adjacency list and ivory vertices by intersecting
// several — no I/O, since every needed list is pinned.
//
// Order pruning happens in the intersection operands, not per candidate,
// on the adaptive path. Before each kernel call the matcher computes the
// ID interval the orders leave open: matcher.orderRange for a red position
// (Lemma 1's total order against the assigned positions) and
// matcher.poRange for a non-red vertex (the symmetry-breaking PO against
// the mapped vertices). It clips every operand to that interval with
// sliceRange and skips the kernel when the interval is empty, so each
// candidate it yields satisfies the orders by construction; only
// injectivity (nonRedOK) is still checked per non-red candidate. The seed
// path (Options.LinearOnlyIntersect) stays unclipped and checks orderOK,
// nonRedOK and poOK per candidate, as the reference the equivalence tests
// compare against (TestClippedEmbeddingsMatchSeed).
//
// Deduplication between internal and external enumeration follows the
// paper: level-1 candidate sequences cover all vertices, so the level-1
// window is an ID interval [lo,hi]; a red match whose positions all fall in
// that interval is counted by the internal pass and skipped by extDescend
// (matcher.allInternal).
//
// I/O accounting invariants:
//
//   - windowIterator sizes windows so that pages not pinned by an outer
//     window never exceed the level's frame budget (buffer.Allocate);
//   - a vertex's multi-page adjacency span is atomic within a window;
//   - every page a window touches is pinned exactly once by that window
//     and unpinned in unloadWindow; pages shared with outer windows are
//     re-pinned cheaply (buffer hits) and release correctly on error paths
//     via levelWindow.pinned.
package core
