package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops", "kind")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Add(0.5)
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a = %v, want 3", got)
	}
	if got := c.With("b").Value(); got != 0.5 {
		t.Fatalf("counter b = %v, want 0.5", got)
	}

	g := reg.Gauge("test_depth", "depth")
	g.With().Set(10)
	g.With().Dec()
	g.With().Add(-2)
	if got := g.With().Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}

	// Idempotent re-registration returns the same family.
	if reg.Counter("test_ops_total", "ops", "kind").With("a").Value() != 3 {
		t.Fatal("re-registered counter lost its series")
	}
}

// TestCounterDelete: a deleted series leaves the exposition, its
// siblings stay, and a later With starts it again from zero.
func TestCounterDelete(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_worker_total", "per worker", "worker")
	c.With("a").Add(3)
	c.With("b").Inc()
	if !c.Delete("a") || c.Delete("a") || c.Delete("never") {
		t.Fatal("Delete reports existence wrongly")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, `worker="a"`) || !strings.Contains(out, `test_worker_total{worker="b"} 1`) {
		t.Fatalf("exposition after delete:\n%s", out)
	}
	if got := c.With("a").Value(); got != 0 {
		t.Fatalf("recreated series = %v, want 0", got)
	}
}

func TestCounterPanicsOnDecrease(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter Add did not panic")
		}
	}()
	reg.Counter("test_total", "t").With().Add(-1)
}

func TestRegisterShapeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	reg.Counter("test_total", "t", "b")
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 5 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// Bucket placement: le=0.1 gets 0.05 and 0.1 (bounds are inclusive),
	// le=1 gets 0.5, le=10 gets 5, +Inf gets 100.
	counts := make([]uint64, 4)
	for i := range counts {
		counts[i] = h.s.buckets[i].Load()
	}
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], want[i], counts)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "t", "w")
	h := reg.Histogram("test_seconds", "t", nil, "w")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%2))
			for i := 0; i < perWorker; i++ {
				c.With(label).Inc()
				h.With(label).Observe(0.001)
			}
		}(w)
	}
	wg.Wait()
	if got := c.With("a").Value() + c.With("b").Value(); got != workers*perWorker {
		t.Fatalf("concurrent counter total = %v, want %d", got, workers*perWorker)
	}
	if got := h.With("a").Count() + h.With("b").Count(); got != workers*perWorker {
		t.Fatalf("concurrent histogram total = %v, want %d", got, workers*perWorker)
	}
}

func TestNameValidation(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "0leading", "has space", "has-dash"} {
		func() {
			defer func() { recover() }()
			reg.Counter(bad, "t")
			t.Errorf("metric name %q accepted", bad)
		}()
	}
	if !validName("a_valid:name9") {
		t.Fatal("valid name rejected")
	}
}

func TestGaugeFuncCollect(t *testing.T) {
	reg := NewRegistry()
	n := 3.0
	reg.GaugeFunc("test_entries", "entries", []string{"shard"}, func(emit func(float64, ...string)) {
		emit(n, "0")
		emit(n*2, "1")
	})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`test_entries{shard="0"} 3`, `test_entries{shard="1"} 6`} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The callback is live: a replaced registration and a changed value
	// both show up on the next scrape.
	n = 5
	reg.GaugeFunc("test_entries", "entries", []string{"shard"}, func(emit func(float64, ...string)) {
		emit(n, "0")
	})
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `test_entries{shard="0"} 5`) {
		t.Fatalf("replaced gauge func not collected:\n%s", sb.String())
	}
}
