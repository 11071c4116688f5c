package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// timedDB times every page read the buffer pool issues against a
// *storage.DB. It implements core.Database and buffer.RunReader, so an
// engine built over it reads exactly as it would over the DB itself
// (TestTimedDBIsTransparent).
type timedDB struct {
	*storage.DB
	calls, pages atomic.Uint64
	nanos        atomic.Int64
}

func (t *timedDB) ReadPageInto(pid storage.PageID, buf []byte) error {
	start := time.Now()
	err := t.DB.ReadPageInto(pid, buf)
	t.record(start, 1)
	return err
}

func (t *timedDB) ReadPagesInto(first storage.PageID, buf []byte) error {
	start := time.Now()
	err := t.DB.ReadPagesInto(first, buf)
	t.record(start, len(buf)/t.PageSize())
	return err
}

func (t *timedDB) reset() {
	t.calls.Store(0)
	t.pages.Store(0)
	t.nanos.Store(0)
}

func (t *timedDB) record(start time.Time, pages int) {
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.pages.Add(uint64(pages))
}

// collector is an in-memory obs.Tracer. It turns the engine's window
// events into spans with self time and keeps the harness's own spans
// around calls into each layer. Events of concurrent runs are told apart
// by their trace ID.
type collector struct {
	mu       sync.Mutex
	open     map[string][]*winFrame // per trace: open windows, innermost last
	windows  [4]float64             // window_open count per level (index 3 = deeper)
	selfUS   float64                // window time not in pins, external enumeration or child windows
	extUS    float64
	level1US float64
	spans    map[string]*spanAgg
}

type winFrame struct {
	level                 int
	pinnedUS, extUS, kids float64
}

type spanAgg struct {
	n     int
	total time.Duration
}

func newCollector() *collector {
	c := &collector{}
	c.reset()
	return c
}

// reset drops everything collected so far (the warm-up's spans).
func (c *collector) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open = map[string][]*winFrame{}
	c.spans = map[string]*spanAgg{}
	c.windows = [4]float64{}
	c.selfUS, c.extUS, c.level1US = 0, 0, 0
}

// Emit implements obs.Tracer.
func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stack := c.open[e.TraceID]
	switch e.Event {
	case "window_open":
		c.windows[min(e.Level, 4)-1]++
		c.open[e.TraceID] = append(stack, &winFrame{level: e.Level})
	case "window_pinned":
		if f := top(stack, e.Level); f != nil {
			f.pinnedUS += float64(e.DurUS)
		}
	case "external_enum":
		c.extUS += float64(e.DurUS)
		if f := top(stack, e.Level); f != nil {
			f.extUS += float64(e.DurUS)
		}
	case "window_close":
		// Pop to the closing level; frames above it were left open by an
		// aborted window and carry no duration of their own.
		for len(stack) > 0 && stack[len(stack)-1].level > e.Level {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || stack[len(stack)-1].level != e.Level {
			break
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := float64(e.DurUS)
		c.selfUS += d - f.pinnedUS - f.extUS - f.kids
		if len(stack) > 0 {
			stack[len(stack)-1].kids += d
		}
		if e.Level == 1 {
			c.level1US += d
		}
		if len(stack) == 0 {
			delete(c.open, e.TraceID)
		} else {
			c.open[e.TraceID] = stack
		}
	}
}

func top(stack []*winFrame, level int) *winFrame {
	if len(stack) == 0 || stack[len(stack)-1].level != level {
		return nil
	}
	return stack[len(stack)-1]
}

// span times fn as a harness span called name.
func (c *collector) span(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	c.mu.Lock()
	a := c.spans[name]
	if a == nil {
		a = &spanAgg{}
		c.spans[name] = a
	}
	a.n++
	a.total += d
	c.mu.Unlock()
	return err
}

// runSelfMS is the time inside Run spans outside level-1 windows, in ms.
func (c *collector) runSelfMS() float64 {
	run := c.spanTotal("core.Run")
	c.mu.Lock()
	defer c.mu.Unlock()
	return millis(run) - c.level1US/1e3
}

func (c *collector) spanTotal(name string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.spans[name]; a != nil {
		return a.total
	}
	return 0
}

// windowMetrics reports the window spans per query.
func (c *collector) windowMetrics(r *report, queries float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.metrics["core.windows.l1"] = ratio(c.windows[0], queries)
	r.metrics["core.windows.l2"] = ratio(c.windows[1], queries)
	r.metrics["core.windows.l3"] = ratio(c.windows[2], queries)
	r.metrics["core.window_ms"] = ratio(c.selfUS/1e3, queries)
	r.metrics["core.ext_enum_ms"] = ratio(c.extUS/1e3, queries)
}

// writeSpans prints the harness spans, slowest total first.
func (c *collector) writeSpans() {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := sortedKeys(c.spans)
	sort.SliceStable(names, func(i, j int) bool { return c.spans[names[i]].total > c.spans[names[j]].total })
	fmt.Fprintf(os.Stderr, "  harness spans: windows l1/l2/l3+ %.0f/%.0f/%.0f, window self %.1f ms, external %.1f ms\n",
		c.windows[0], c.windows[1], c.windows[2]+c.windows[3], c.selfUS/1e3, c.extUS/1e3)
	for _, n := range names {
		a := c.spans[n]
		fmt.Fprintf(os.Stderr, "    %-20s %6d calls %12.3f ms\n", n, a.n, millis(a.total))
	}
}
