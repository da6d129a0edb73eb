package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func span(job string, i int) SpanRecord {
	return SpanRecord{
		TraceID: "trace-" + job,
		SpanID:  fmt.Sprintf("span-%04d", i),
		Name:    "chunk",
		JobID:   job,
		Start:   time.Unix(0, int64(i)),
		End:     time.Unix(0, int64(i+1)),
	}
}

func TestCollectorRingEviction(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 6; i++ {
		c.Add(span("job-a", i))
	}
	if c.Len() != 4 || c.Total() != 6 {
		t.Fatalf("Len/Total = %d/%d, want 4/6", c.Len(), c.Total())
	}
	got := c.JobSpans("job-a")
	if len(got) != 4 {
		t.Fatalf("JobSpans kept %d spans, want the 4 newest", len(got))
	}
	// The two oldest were overwritten; what survives is 2..5 in start
	// order.
	for k, rec := range got {
		want := fmt.Sprintf("span-%04d", k+2)
		if rec.SpanID != want {
			t.Fatalf("JobSpans[%d] = %s, want %s", k, rec.SpanID, want)
		}
	}
	if stray := c.JobSpans("job-b"); stray != nil {
		t.Fatalf("JobSpans for an unknown job = %v, want nil", stray)
	}

	// Another job's span evicts job-a's oldest and is filtered apart
	// from it.
	c.Add(span("job-b", 6))
	if b := c.JobSpans("job-b"); len(b) != 1 || b[0].JobID != "job-b" || b[0].SpanID != "span-0006" {
		t.Fatalf("JobSpans(job-b) = %+v, want only span-0006", b)
	}
	a := c.JobSpans("job-a")
	if len(a) != 3 || a[0].SpanID != "span-0003" {
		t.Fatalf("JobSpans(job-a) after eviction = %+v, want span-0003..0005", a)
	}
	for _, rec := range a {
		if rec.JobID != "job-a" {
			t.Fatalf("JobSpans(job-a) returned %s's span %s", rec.JobID, rec.SpanID)
		}
	}
}

// TestCollectorDefaultCap fills a default collector past its capacity:
// it retains exactly DefaultCollectorCap spans, the newest ones.
func TestCollectorDefaultCap(t *testing.T) {
	c := NewCollector(0)
	const extra = 3
	for i := 0; i < DefaultCollectorCap+extra; i++ {
		c.Add(span("job-a", i))
	}
	if c.Len() != DefaultCollectorCap || c.Total() != DefaultCollectorCap+extra {
		t.Fatalf("Len/Total = %d/%d, want %d/%d", c.Len(), c.Total(), DefaultCollectorCap, DefaultCollectorCap+extra)
	}
	if got := c.JobSpans("job-a"); got[0].SpanID != fmt.Sprintf("span-%04d", extra) {
		t.Fatalf("oldest retained span %s, want span-%04d", got[0].SpanID, extra)
	}
}

// TestCollectorConcurrentAppend hammers the ring from many goroutines
// while readers snapshot it — the -race proof that a fleet of worker
// completions and trace scrapes can share one collector.
func TestCollectorConcurrentAppend(t *testing.T) {
	const (
		writers = 8
		perW    = 200
	)
	c := NewCollector(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			job := fmt.Sprintf("job-%d", w%2)
			for i := 0; i < perW; i++ {
				c.Add(span(job, w*perW+i))
				if i%32 == 0 {
					c.JobSpans(job)
					c.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Total() != writers*perW {
		t.Fatalf("Total = %d, want %d", c.Total(), writers*perW)
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want the full ring (64)", c.Len())
	}
	both := len(c.JobSpans("job-0")) + len(c.JobSpans("job-1"))
	if both != 64 {
		t.Fatalf("job-0 + job-1 spans = %d, want 64", both)
	}
}

// TestNilCollectorZeroAlloc pins the disabled hot path: with tracing
// off (a nil collector) every call must be a free no-op — the
// dispatcher completes thousands of chunks through this path.
func TestNilCollectorZeroAlloc(t *testing.T) {
	var c *Collector
	rec := span("job-a", 1)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			t.Error("nil collector claims to be enabled")
		}
		c.Add(rec)
		if c.JobSpans("job-a") != nil {
			t.Error("nil collector returned spans")
		}
		if c.Len() != 0 || c.Total() != 0 {
			t.Error("nil collector reports retained spans")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path costs %.1f allocs/op, want 0", allocs)
	}
}
