// Package sharedscan implements cohort scheduling for shared-scan
// multi-query execution: compatible in-flight queries on one database are
// grouped into a cohort and driven through a single level-1 window sweep
// (core.Sweep), every rider's v-group forest evaluated against each pinned
// window before the sweep advances. N concurrent queries then cost one
// window cycle of physical I/O instead of N — the multi-query
// generalization of the paper's page-once discipline.
//
// The sweep cycles the fixed level-1 partition like a merry-go-round:
// riders join at the next window boundary (late-join), consume every
// window exactly once from wherever they boarded, and detach when their
// cycle completes (early-finish leaves the sweep running for the others).
// Total counts are invariant under window order, so every rider's result
// is bit-identical to a solo run.
package sharedscan

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/obs"
)

// ErrNotEligible marks failures the caller should resolve by running the
// query on a solo engine instead: a live-ingest overlay, plans too deep for
// the rider frame share, a closed scheduler, or a sweep that failed for
// reasons unrelated to the query. It aliases core.ErrRiderNotEligible so
// one errors.Is check covers both layers.
var ErrNotEligible = core.ErrRiderNotEligible

// Options configures a Scheduler.
type Options struct {
	// MaxRiders bounds cohort size (default 4). The cohort engine's frames
	// are split between the sweep's level-1 budget and MaxRiders deep-level
	// shares, so admission above the bound waits for a seat.
	MaxRiders int
	// FormationWait is the admission-batching delay before a fresh sweep
	// loads its first window, letting near-simultaneous arrivals board
	// together instead of trickling in one window apart (default 0).
	FormationWait time.Duration
	// RiderThreads sizes each rider's private worker pool (0 = engine
	// threads divided by MaxRiders).
	RiderThreads int
	// Metrics, when non-nil, receives the cohort metric family
	// (dualsim_cohort_*, dualsim_shared_*, dualsim_sweep_pages_read_total).
	Metrics *obs.Registry
}

// Scheduler owns one cohort engine and runs at most one sweep on it at a
// time. Run is safe for concurrent use; each call becomes a pending rider
// that boards the active sweep at its next window boundary (starting a
// sweep if none is running) and blocks until its result is ready.
type Scheduler struct {
	eng        *core.Engine
	opts       Options
	sweepScope *obs.Scope

	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	pending []*pendingRider
	running bool
	closed  bool
	loopWG  sync.WaitGroup

	active atomic.Int64
	sweeps atomic.Uint64

	sharedWindows *obs.Counter
	sharedPages   *obs.Counter
	ridersTotal   *obs.Counter
}

// Stats is a point-in-time cohort snapshot for GET /stats.
type Stats struct {
	// MaxRiders is the configured cohort bound.
	MaxRiders int `json:"max_riders"`
	// ActiveRiders is the number of riders currently attached to a sweep.
	ActiveRiders int `json:"active_riders"`
	// RidersTotal counts queries admitted into cohorts since start.
	RidersTotal uint64 `json:"riders_total"`
	// Sweeps counts shared sweeps started.
	Sweeps uint64 `json:"sweeps_total"`
	// SharedWindows counts level-1 windows loaded once and served to every
	// attached rider.
	SharedWindows uint64 `json:"shared_windows_total"`
	// SharedPages counts shared-window pages attributed to riders (logical
	// consumption of already-resident pages).
	SharedPages uint64 `json:"shared_pages_total"`
	// SweepPagesRead is the physical page reads owned by the sweep — the
	// cohort's entire device I/O, charged once (the attribution invariant:
	// sum of rider-attributed pages + this = the global pages_read delta).
	SweepPagesRead uint64 `json:"sweep_pages_read_total"`
}

// New builds a scheduler over the cohort engine. The engine must be
// dedicated to the scheduler: sweeps hold its run guard, and nothing else
// may run on it. Call Close before closing the engine.
func New(eng *core.Engine, opts Options) *Scheduler {
	if opts.MaxRiders < 1 {
		opts.MaxRiders = 4
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		eng:        eng,
		opts:       opts,
		sweepScope: obs.NewScope(obs.NewTraceID()),
		baseCtx:    ctx,
		cancel:     cancel,
		sharedWindows: reg.Counter("dualsim_shared_windows_total",
			"level-1 windows loaded once by the shared sweep and served to every attached rider"),
		sharedPages: reg.Counter("dualsim_shared_pages_total",
			"shared-window pages attributed to riders (resident consumption; the physical reads are the sweep's)"),
		ridersTotal: reg.Counter("dualsim_cohort_riders_total",
			"queries admitted into a shared-scan cohort"),
	}
	reg.GaugeFunc("dualsim_cohort_size", "riders currently attached to the shared sweep", func() float64 {
		return float64(s.active.Load())
	})
	reg.CounterFunc("dualsim_cohort_sweeps_total", "shared sweeps started", func() uint64 {
		return s.sweeps.Load()
	})
	reg.CounterFunc("dualsim_sweep_pages_read_total",
		"physical page reads owned by the shared sweep (each cohort page charged once)", func() uint64 {
			return s.sweepScope.PagesRead.Load()
		})
	return s
}

// Stats returns the cohort snapshot.
func (s *Scheduler) Stats() Stats {
	return Stats{
		MaxRiders:      s.opts.MaxRiders,
		ActiveRiders:   int(s.active.Load()),
		RidersTotal:    s.ridersTotal.Value(),
		Sweeps:         s.sweeps.Load(),
		SharedWindows:  s.sharedWindows.Value(),
		SharedPages:    s.sharedPages.Value(),
		SweepPagesRead: s.sweepScope.PagesRead.Load(),
	}
}

// SweepScope returns the persistent sweep attribution scope — the owner of
// every physical read a cohort performs.
func (s *Scheduler) SweepScope() *obs.Scope { return s.sweepScope }

type outcome struct {
	res *core.Result
	err error
}

type pendingRider struct {
	ctx  context.Context
	spec core.RunSpec
	// claimed resolves the admission-vs-abandonment race: whichever of the
	// admitting sweep loop and the timed-out waiter wins the CAS decides
	// the rider's fate.
	claimed atomic.Bool
	done    chan outcome // buffered; exactly one send per rider
}

type activeRider struct {
	pr    *pendingRider
	rider *core.Rider
	err   error
}

// Run executes spec as a cohort rider and blocks until the rider's cycle
// completes (or fails). Errors wrapping ErrNotEligible mean the query
// itself is fine and should be retried on a solo engine.
func (s *Scheduler) Run(ctx context.Context, spec core.RunSpec) (*core.Result, error) {
	pr := &pendingRider{ctx: ctx, spec: spec, done: make(chan outcome, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: scheduler closed", ErrNotEligible)
	}
	s.pending = append(s.pending, pr)
	if !s.running {
		s.running = true
		s.loopWG.Add(1)
		go s.sweepLoop()
	}
	s.mu.Unlock()
	select {
	case out := <-pr.done:
		return out.res, out.err
	case <-ctx.Done():
		if pr.claimed.CompareAndSwap(false, true) {
			// Never admitted; the sweep loop will skip the claimed entry.
			return nil, ctx.Err()
		}
		// Already riding: the dead context fails the rider at the next
		// window boundary and the outcome arrives shortly.
		out := <-pr.done
		return out.res, out.err
	}
}

// Close stops the scheduler: the active sweep unwinds (riders fail with
// the cancellation), pending riders bounce with ErrNotEligible, and new
// Run calls are refused. Blocks until the sweep loop exits; call before
// closing the cohort engine.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.loopWG.Wait()
	s.drainPending(fmt.Errorf("%w: scheduler closed", ErrNotEligible))
}

// sweepLoop runs sweeps back to back while riders keep arriving, and
// parks (running = false) when the queue empties.
func (s *Scheduler) sweepLoop() {
	defer s.loopWG.Done()
	for {
		sweep, err := s.eng.NewSweep(core.SweepOptions{MaxRiders: s.opts.MaxRiders, Scope: s.sweepScope})
		if err != nil {
			// The engine cannot host a sweep (frame budget too small for
			// this database). Bounce everyone to solo execution.
			s.drainPending(fmt.Errorf("%w: %v", ErrNotEligible, err))
		} else {
			s.sweeps.Add(1)
			if w := s.opts.FormationWait; w > 0 {
				t := time.NewTimer(w)
				select {
				case <-t.C:
				case <-s.baseCtx.Done():
				}
				t.Stop()
			}
			s.runSweep(sweep)
			sweep.Close()
		}
		s.mu.Lock()
		if len(s.pending) == 0 || s.closed {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}

// runSweep drives one sweep: cycle the fixed partition, admitting pending
// riders at each boundary, fanning each loaded window out to every rider,
// and settling riders as they finish their cycle or fail. Returns when no
// riders remain and the pending queue is empty, or the sweep itself fails.
func (s *Scheduler) runSweep(sweep *core.Sweep) {
	w := sweep.Windows()
	var riders []*activeRider
	idx := 0
	for {
		riders = append(riders, s.admit(sweep, len(riders))...)
		if len(riders) == 0 {
			s.mu.Lock()
			empty := len(s.pending) == 0
			s.mu.Unlock()
			if empty {
				return
			}
			continue
		}
		if err := s.serveWindow(sweep, idx, riders); err != nil {
			// The window itself failed (past the retry budget): every
			// attached rider shares the failure; waiting riders never saw
			// it and retry solo.
			for _, ar := range riders {
				s.finishRider(ar, nil, err)
			}
			s.drainPending(fmt.Errorf("%w: shared sweep failed: %v", ErrNotEligible, err))
			return
		}
		kept := riders[:0]
		for _, ar := range riders {
			switch {
			case ar.err != nil:
				s.finishRider(ar, nil, ar.err)
			case ar.rider.Done():
				res, ferr := ar.rider.Finish()
				s.finishRider(ar, res, ferr)
			default:
				kept = append(kept, ar)
			}
		}
		riders = kept
		idx = (idx + 1) % w
	}
}

// serveWindow hands partition window idx to every rider that needs it. A
// window every rider skips (a resume checkpoint settled it) is never
// loaded. Riders' errors land in their activeRider; the returned error is
// the window load's own.
func (s *Scheduler) serveWindow(sweep *core.Sweep, idx int, riders []*activeRider) error {
	var need []*activeRider
	for _, ar := range riders {
		if !ar.rider.SkipWindow(idx) {
			need = append(need, ar)
		}
	}
	if len(need) == 0 {
		return nil
	}
	sw, err := sweep.Load(s.baseCtx, idx, -1)
	if err != nil {
		return err
	}
	s.sharedWindows.Inc()
	var wg sync.WaitGroup
	for _, ar := range need {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar.err = ar.rider.ProcessWindow(sw)
		}()
	}
	wg.Wait()
	s.sharedPages.Add(uint64(sw.Pages()) * uint64(len(need)))
	sweep.Release(sw)
	return nil
}

// admit boards pending riders up to the free seats, skipping entries whose
// waiters abandoned them. Ineligible specs bounce immediately with the
// NewRider error.
func (s *Scheduler) admit(sweep *core.Sweep, current int) []*activeRider {
	seats := s.opts.MaxRiders - current
	if seats <= 0 {
		return nil
	}
	s.mu.Lock()
	var take []*pendingRider
	for len(s.pending) > 0 && len(take) < seats {
		take = append(take, s.pending[0])
		s.pending = s.pending[1:]
	}
	s.mu.Unlock()
	var out []*activeRider
	for _, pr := range take {
		if !pr.claimed.CompareAndSwap(false, true) {
			continue // waiter gave up before admission
		}
		rd, err := sweep.NewRider(pr.ctx, pr.spec, s.opts.RiderThreads)
		if err != nil {
			pr.done <- outcome{nil, err}
			continue
		}
		s.active.Add(1)
		s.ridersTotal.Inc()
		out = append(out, &activeRider{pr: pr, rider: rd})
	}
	return out
}

// finishRider settles one rider: worker pool closed, gauge decremented,
// outcome delivered to the waiting Run call.
func (s *Scheduler) finishRider(ar *activeRider, res *core.Result, err error) {
	ar.rider.Close()
	s.active.Add(-1)
	ar.pr.done <- outcome{res, err}
}

// drainPending fails every queued rider that has not been claimed yet.
func (s *Scheduler) drainPending(err error) {
	s.mu.Lock()
	take := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, pr := range take {
		if pr.claimed.CompareAndSwap(false, true) {
			pr.done <- outcome{nil, err}
		}
	}
}
