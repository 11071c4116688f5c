package core

import (
	"context"
	"errors"
	"fmt"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
)

// Checkpoint is the serializable enumeration frontier at a level-1 (outer)
// window boundary. The dual approach makes this the one natural suspension
// point: when the outermost window closes, every deeper window has been
// iterated to exhaustion, the worker pool has drained, and both the
// internal and external embedding counts for everything at or before the
// boundary are settled. The remaining work is a pure function of the page
// file and this frontier, so a run replayed from a Checkpoint — on this
// engine, another engine, or another process over the same database —
// produces bit-identical remaining counts. Counts are invariant under
// window chopping (each embedding is counted exactly once, by the level-1
// window containing its first matching-order position), so resuming is
// correct even under a different buffer budget, where the window
// boundaries after the cursor fall elsewhere.
type Checkpoint struct {
	// K is the plan's red vertex count; a resume is rejected unless it
	// matches the plan it resumes.
	K int `json:"k"`
	// Cursor is the index into the level-1 merged candidate sequence
	// (always the full ascending vertex range — level 1 is a forest root)
	// where enumeration resumes. Cursor == NumVertices marks a finished
	// run.
	Cursor int `json:"cursor"`
	// Windows is the number of level-1 windows completed before the
	// cursor.
	Windows int `json:"windows"`
	// Internal is the settled internal-embedding count at the boundary; a
	// resumed run starts its totals from it.
	Internal uint64 `json:"internal"`
	// External is the settled external-embedding count at the boundary.
	External uint64 `json:"external"`
}

// ErrBadCheckpoint reports a Checkpoint that does not fit the plan or
// database it is being resumed against (wrong K, cursor out of range).
var ErrBadCheckpoint = errors.New("core: checkpoint does not match the plan or database")

// RunSpec is the full description of one enumeration run, for callers that
// need more than RunPlanContextFunc's positional arguments: resuming from a
// checkpoint, observing checkpoints as they are taken, or attributing the
// run's cost to one query.
type RunSpec struct {
	// Plan is the prepared plan to execute (required).
	Plan *plan.Plan
	// OnMatch overrides Options.OnMatch for this run; nil here means no
	// embedding delivery (use Options.OnMatch via RunPlanContext when the
	// engine-level callback is wanted).
	OnMatch func(m []graph.VertexID)
	// Resume, when non-nil, replays the run from the checkpoint: windows
	// before the cursor are skipped entirely (no page reads), counts start
	// from the checkpoint's totals.
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, receives the frontier after every
	// completed level-1 window, from the orchestrating goroutine (one call
	// at a time, never concurrently). The value is safe to retain.
	OnCheckpoint func(Checkpoint)
	// Scope, when non-nil, attributes this run's cost (pages read, I/O
	// wait, kernel mix, ...) to one query: every hot-path counter mirrors
	// into it alongside the global registry, trace events carry its trace
	// ID and span hierarchy, and Result.Profile reports the rendered
	// total. The serving layer creates one per request at HTTP admission.
	Scope *obs.Scope
	// Overlay, when non-nil and non-empty, runs the enumeration against
	// the mutated graph (base page file + live-ingest delta): every
	// window-load merges the overlay's added neighbors into the loaded
	// adjacency and filters its tombstones out, at every level, before
	// the window seals. The snapshot is immutable, so one run observes
	// exactly one graph version (the snapshot's data epoch) no matter how
	// many batches land while it executes. An empty overlay is
	// indistinguishable from nil — the base read path runs unchanged.
	Overlay *delta.Snapshot
}

// ResumeContext replays a run from cp: enumeration restarts at the
// checkpoint's level-1 cursor, totals start from the checkpoint's counts,
// and the remaining counts are bit-identical to what the interrupted run
// would have produced. The plan must be prepared from the same query (same
// K) over the same database; ErrBadCheckpoint (wrapped) otherwise.
func (e *Engine) ResumeContext(ctx context.Context, p *plan.Plan, cp Checkpoint) (*Result, error) {
	return e.RunSpecContext(ctx, RunSpec{Plan: p, OnMatch: e.opts.OnMatch, Resume: &cp})
}

// validateResume checks cp against the plan and database before a resumed
// run starts.
func (e *Engine) validateResume(cp *Checkpoint, p *plan.Plan) error {
	if cp.K != p.K {
		return fmt.Errorf("%w: checkpoint K=%d, plan K=%d", ErrBadCheckpoint, cp.K, p.K)
	}
	if cp.Cursor < 0 || cp.Cursor > len(e.all) {
		return fmt.Errorf("%w: cursor %d outside [0, %d]", ErrBadCheckpoint, cp.Cursor, len(e.all))
	}
	if cp.Windows < 0 {
		return fmt.Errorf("%w: negative window count %d", ErrBadCheckpoint, cp.Windows)
	}
	return nil
}
