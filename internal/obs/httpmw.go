package obs

import (
	"log/slog"
	"net/http"
	"time"
)

// HTTPMetrics instruments HTTP routes: a per-route latency histogram,
// an in-flight gauge, and a status-class counter, plus X-Request-ID
// propagation (incoming IDs ride the request context; absent ones are
// minted) and a debug-level access log line per request.
type HTTPMetrics struct {
	logger   *slog.Logger
	inFlight Gauge
	requests *CounterVec
	duration *HistogramVec
}

// NewHTTPMetrics registers the HTTP metric families on reg. A nil
// logger discards the access log.
func NewHTTPMetrics(reg *Registry, logger *slog.Logger) *HTTPMetrics {
	if logger == nil {
		logger = DiscardLogger()
	}
	return &HTTPMetrics{
		logger: logger,
		inFlight: reg.Gauge("sweepd_http_in_flight_requests",
			"Requests currently being served.").With(),
		requests: reg.Counter("sweepd_http_requests_total",
			"Requests served, by route and status class.", "route", "code"),
		duration: reg.Histogram("sweepd_http_request_duration_seconds",
			"Request latency by route.", nil, "route"),
	}
}

// Wrap instruments one route. The route string labels the metrics —
// pass the mux pattern, not the concrete URL, or the label cardinality
// grows with every distinct job ID.
func (hm *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	// Resolve every series this route can touch once, at wrap time: the
	// per-request path then costs only atomics, never a label-key build
	// or series-map lookup.
	dur := hm.duration.With(route)
	var byClass [len(codeClasses)]Counter
	for i, class := range codeClasses {
		byClass[i] = hm.requests.With(route, class)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(WithRequestID(r.Context(), id))

		hm.inFlight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		returned := false
		// Deferred so a handler that panics (a stream aborted with
		// http.ErrAbortHandler) is booked like any other request before
		// the panic goes on to net/http; one that panics before writing
		// anything sent no response and books as a 500.
		defer func() {
			elapsed := time.Since(start)
			hm.inFlight.Dec()
			status := sw.status()
			if !returned && sw.code == 0 {
				status = http.StatusInternalServerError
			}
			dur.Observe(elapsed.Seconds())
			byClass[classIndex(status)].Inc()
			// Guarded so a discarding or info-level logger costs nothing:
			// the attribute boxing below is pure waste when debug is off.
			if hm.logger.Enabled(r.Context(), slog.LevelDebug) {
				hm.logger.Debug("http request",
					"route", route,
					"method", r.Method,
					"path", r.URL.Path,
					"status", status,
					"duration", elapsed,
					"request_id", id)
			}
		}()
		next.ServeHTTP(sw, r)
		returned = true
	})
}

// statusWriter records the status code while passing Flush through, so
// instrumented NDJSON streams keep streaming.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing;
// handlers assert for http.Flusher on the writer they are handed, and
// the wrapper must not hide it.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded code, defaulting to 200 for handlers
// that never explicitly wrote one.
func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// codeClasses are the five status-class labels, keeping the request
// counter's cardinality at five per route instead of forty.
var codeClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// classIndex folds a status code to its codeClasses index.
func classIndex(code int) int {
	switch {
	case code < 200:
		return 0
	case code < 300:
		return 1
	case code < 400:
		return 2
	case code < 500:
		return 3
	default:
		return 4
	}
}
