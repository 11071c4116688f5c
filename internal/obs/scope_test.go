package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestScopeSpanIDs checks span IDs are unique and sequential within a
// scope, including under concurrent minting (server and engine share one
// sequence across the admission/run boundary).
func TestScopeSpanIDs(t *testing.T) {
	sc := NewScope("abc123")
	if sc.TraceID() != "abc123" {
		t.Errorf("TraceID = %q", sc.TraceID())
	}
	var nilScope *Scope
	if nilScope.TraceID() != "" {
		t.Error("nil scope TraceID should be empty")
	}
	if sc.RootSpan() != 0 {
		t.Errorf("fresh RootSpan = %d, want 0", sc.RootSpan())
	}
	first := sc.NextSpanID()
	if first != 1 {
		t.Errorf("first span ID = %d, want 1", first)
	}
	sc.SetRootSpan(first)
	if sc.RootSpan() != first {
		t.Errorf("RootSpan = %d, want %d", sc.RootSpan(), first)
	}

	const workers, per = 8, 100
	ids := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				ids <- sc.NextSpanID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate span ID %d", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*per {
		t.Errorf("%d unique IDs, want %d", len(seen), workers*per)
	}
}

// TestScopeProfile checks Profile snapshots every counter into the right
// CostProfile field.
func TestScopeProfile(t *testing.T) {
	sc := NewScope("t1")
	sc.PagesRead.Add(10)
	sc.LogicalReads.Add(20)
	sc.BufferHits.Add(12)
	sc.PinWaitNanos.Add(100)
	sc.CoalescedRuns.Add(2)
	sc.CoalescedPages.Add(8)
	sc.IOWaitNanos.Add(300)
	sc.Windows.Add(5)
	sc.WindowsLevel1.Add(3)
	sc.IntersectLin.Add(6)
	sc.IntersectGal.Add(7)
	sc.IntersectKWay.Add(1)
	sc.StealSplits.Add(2)
	sc.WindowRetries.Add(1)
	sc.Checkpoints.Add(3)
	sc.EmbInternal.Add(40)
	sc.EmbExternal.Add(2)

	p := sc.Profile()
	want := CostProfile{
		TraceID: "t1", IOWaitNS: 300, PinWaitNS: 100,
		PagesRead: 10, LogicalReads: 20, BufferHits: 12,
		CoalescedRuns: 2, CoalescedPages: 8,
		Windows: 5, WindowsLevel1: 3,
		IntersectLinear: 6, IntersectGallop: 7, IntersectKWay: 1,
		StealSplits: 2, WindowRetries: 1, Checkpoints: 3,
		EmbInternal: 40, EmbExternal: 2,
	}
	if p != want {
		t.Errorf("Profile() = %+v, want %+v", p, want)
	}
}

// TestCostProfileWriteReport spot-checks the human rendering: every major
// section present, durations humanized, hit rate computed.
func TestCostProfileWriteReport(t *testing.T) {
	p := CostProfile{
		TraceID: "deadbeef", QueueNS: int64(2 * time.Millisecond),
		PrepNS: int64(time.Millisecond), ExecNS: int64(time.Second),
		IOWaitNS: int64(100 * time.Millisecond), PinWaitNS: int64(10 * time.Millisecond),
		PagesRead: 100, LogicalReads: 400, BufferHits: 300,
		CoalescedRuns: 5, CoalescedPages: 50,
		Windows: 9, WindowsLevel1: 3,
		IntersectLinear: 1, IntersectGallop: 2, IntersectKWay: 3,
		WindowRetries: 1, Checkpoints: 4,
		EmbInternal: 7, EmbExternal: 8,
	}
	var b strings.Builder
	p.WriteReport(&b)
	out := b.String()
	for _, want := range []string{
		"deadbeef", "queue wait", "2ms", "prep", "1s",
		"pages read       100", "75.0%", "coalesced runs   5",
		"windows          9", "linear 1, gallop 2, k-way 3",
		"window retries 1, checkpoints 4", "internal 7, external 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
