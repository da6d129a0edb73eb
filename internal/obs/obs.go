// Package obs is the observability layer: a zero-dependency,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with optional label dimensions), Prometheus-compatible
// text exposition (expose.go), structured tracing of request and job
// lifecycles over log/slog (trace.go), and HTTP middleware that
// instruments every route with latency histograms, in-flight gauges and
// status-class counters while propagating X-Request-ID (httpmw.go).
//
// The cardinal rule is that observation never influences results: the
// sweep engine's determinism contract (records are a pure function of
// their request) is untouched because nothing in this package feeds
// back into evaluation — metrics are write-only from the hot path and
// read-only from /metrics.
//
// Metric families follow Prometheus naming conventions:
// <subsystem>_<noun>_<unit>[_total], e.g. sweepd_http_request_duration_seconds
// or sweep_store_gets_total. Registration is idempotent — asking for an
// already-registered family with the same shape returns the existing
// one, so independently-constructed components (the manager, the store)
// can share one Registry without coordination.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and hands out their series. The zero
// value is not usable; construct with NewRegistry. All methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// funcs are callback-backed gauge families, evaluated at exposition
	// time (see GaugeFunc).
	funcs map[string]*gaugeFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		funcs:    make(map[string]*gaugeFunc),
	}
}

// metricType is the Prometheus exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named metric with a fixed label schema; series are its
// per-label-value instances.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (family, label values) instance. Counter and gauge
// values live in valBits as float64 bits; histograms use the per-bucket
// counts plus sumBits.
type series struct {
	labelVals []string
	valBits   atomic.Uint64
	// buckets[i] counts observations in (buckets[i-1], bounds[i]];
	// the final slot is the +Inf overflow. Non-cumulative internally,
	// cumulated at exposition.
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// addFloat atomically adds d to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// gaugeFunc is a callback-backed gauge family: collect is invoked at
// exposition time and emits zero or more (value, label values) samples.
// It exists for values that are cheap to read on demand but wasteful to
// maintain on the hot path — store entry counts, queue depths.
type gaugeFunc struct {
	name    string
	help    string
	labels  []string
	collect func(emit func(v float64, labelVals ...string))
}

// validName is the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func checkNames(name string, labels []string) {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
}

// register returns the named family, creating it on first use. A
// re-registration with the same shape returns the existing family;
// a mismatched shape (different type, labels or buckets) panics —
// that is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, typ metricType, buckets []float64, labels []string) *family {
	checkNames(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	if _, ok := r.funcs[name]; ok {
		panic(fmt.Sprintf("obs: metric %s already registered as a gauge func", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesFor returns the series keyed by the label values, creating it
// on first use.
func (f *family) seriesFor(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelVals: append([]string(nil), labelVals...)}
	if f.typ == typeHistogram {
		s.buckets = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// deleteSeries drops the series keyed by the label values and reports
// whether it existed. Handles obtained from it earlier keep counting
// into a series no exposition shows.
func (f *family) deleteSeries(labelVals []string) bool {
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.series[key]
	delete(f.series, key)
	return ok
}

// sortedSeries returns the family's series sorted by label values, a
// stable exposition order.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelVals, out[j].labelVals
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a counter family; With picks one labeled series.
type CounterVec struct{ f *family }

// Counter is one monotonically increasing series.
type Counter struct{ s *series }

// Counter registers (or returns) a counter family with the given label
// schema. Counters only go up; use a Gauge for values that go down.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, nil, labels)}
}

// With returns the series for the label values (one per schema label).
func (v *CounterVec) With(labelVals ...string) Counter {
	return Counter{s: v.f.seriesFor(labelVals)}
}

// Delete drops the series for the label values, so a label that is
// gone for good (a departed worker) stops growing the exposition. It
// reports whether the series existed.
func (v *CounterVec) Delete(labelVals ...string) bool { return v.f.deleteSeries(labelVals) }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds d, which must not be negative.
func (c Counter) Add(d float64) {
	if d < 0 {
		panic("obs: counter decreased")
	}
	addFloat(&c.s.valBits, d)
}

// Value returns the current value (for tests and diagnostics).
func (c Counter) Value() float64 { return math.Float64frombits(c.s.valBits.Load()) }

// GaugeVec is a gauge family; With picks one labeled series.
type GaugeVec struct{ f *family }

// Gauge is one series whose value moves both ways.
type Gauge struct{ s *series }

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, nil, labels)}
}

// With returns the series for the label values.
func (v *GaugeVec) With(labelVals ...string) Gauge {
	return Gauge{s: v.f.seriesFor(labelVals)}
}

// Set stores v.
func (g Gauge) Set(v float64) { g.s.valBits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g Gauge) Add(d float64) { addFloat(&g.s.valBits, d) }

// Inc adds one.
func (g Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g Gauge) Dec() { g.Add(-1) }

// Value returns the current value (for tests and diagnostics).
func (g Gauge) Value() float64 { return math.Float64frombits(g.s.valBits.Load()) }

// GaugeFunc registers a callback-backed gauge family: collect runs at
// exposition time and emits samples via emit(value, labelValues...).
// Re-registering the same name replaces the callback — the semantics a
// reopened component (a store closed and reopened on the same registry)
// needs, since its old callback would read freed state.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(emit func(v float64, labelVals ...string))) {
	checkNames(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: metric %s already registered as a direct family", name))
	}
	r.funcs[name] = &gaugeFunc{name: name, help: help, labels: append([]string(nil), labels...), collect: collect}
}

// HistogramVec is a histogram family; With picks one labeled series.
type HistogramVec struct{ f *family }

// Histogram is one series of bucketed observations.
type Histogram struct {
	s      *series
	bounds []float64
}

// DefBuckets is the default latency bucket layout in seconds: 100µs to
// 10s, roughly geometric — wide enough for both sub-millisecond store
// lookups and multi-second sweep jobs.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram registers (or returns) a histogram family with fixed
// bucket upper bounds (ascending; +Inf is implicit). Nil buckets means
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets not strictly ascending for " + name)
		}
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, buckets, labels)}
}

// With returns the series for the label values.
func (v *HistogramVec) With(labelVals ...string) Histogram {
	return Histogram{s: v.f.seriesFor(labelVals), bounds: v.f.buckets}
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch
	// predictor eats this; a binary search is slower at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.s.buckets[i].Add(1)
	addFloat(&h.s.sumBits, v)
}

// Count returns the total number of observations (for tests).
func (h Histogram) Count() uint64 {
	var n uint64
	for i := range h.s.buckets {
		n += h.s.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (for tests).
func (h Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }
