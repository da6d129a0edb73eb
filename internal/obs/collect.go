package obs

import (
	"sort"
	"sync"
	"time"
)

// SpanRecord is one finished span of a distributed trace: who it
// belongs to (trace, parent, job, worker), what it was (name), and
// when it ran. Records are plain data — workers build them locally and
// ship them to the daemon with chunk completions, the daemon mints its
// own for job phases, and the Collector retains the recent ones for
// the trace and timeline endpoints.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	JobID    string            `json:"job_id,omitempty"`
	Worker   string            `json:"worker,omitempty"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's measured wall time.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// DefaultCollectorCap is the span-ring capacity NewCollector falls back
// to. At the dispatcher's default chunking a job produces a handful of
// phase spans plus a few spans per chunk, so 4096 retains the complete
// traces of the last several jobs even on wide grids.
const DefaultCollectorCap = 4096

// Collector is a bounded in-memory span ring: Add overwrites the
// oldest record once the ring is full, so a long-lived daemon retains
// the most recent spans at a fixed memory cost and never blocks or
// grows. A nil *Collector is the disabled state — every method is a
// cheap no-op, so instrumented hot paths cost nothing when tracing is
// off.
type Collector struct {
	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	count int
	total uint64
}

// NewCollector returns a collector retaining the last capacity spans
// (<= 0 means DefaultCollectorCap).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCollectorCap
	}
	return &Collector{ring: make([]SpanRecord, capacity)}
}

// Enabled reports whether spans are being collected — the guard hot
// paths use before building attribute maps a nil collector would drop.
func (c *Collector) Enabled() bool { return c != nil }

// Add retains one span, evicting the oldest when the ring is full.
// Safe for concurrent use; no-op (and allocation-free) on a nil
// collector.
func (c *Collector) Add(rec SpanRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ring[c.next] = rec
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
	}
	if c.count < len(c.ring) {
		c.count++
	}
	c.total++
	c.mu.Unlock()
}

// Len is the number of spans currently retained.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Total counts every span ever added.
func (c *Collector) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// JobSpans returns the retained spans of one job, ordered by start
// time (ties by span ID, so the order is deterministic).
func (c *Collector) JobSpans(jobID string) []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var out []SpanRecord
	for i := 0; i < c.count; i++ {
		if c.ring[i].JobID == jobID {
			out = append(out, c.ring[i])
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Start.Equal(out[k].Start) {
			return out[i].Start.Before(out[k].Start)
		}
		return out[i].SpanID < out[k].SpanID
	})
	return out
}
