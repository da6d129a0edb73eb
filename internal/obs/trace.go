package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// Tracing here is deliberately small: a request ID that rides the
// context (minted by the HTTP middleware from X-Request-ID, or fresh),
// and trace and span IDs minted below. Trace identity crosses process
// boundaries only inside the lease body (Lease.TraceID/SpanID); the
// span records themselves are retained by the in-daemon Collector
// (collect.go).

// RequestIDHeader is the HTTP header request IDs arrive on and are
// echoed back through.
const RequestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "" when none was set.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// reqSeq backs the fallback request-ID generator when the system random
// source fails (it practically never does).
var reqSeq atomic.Uint64

// NewRequestID mints a 16-hex-character request ID. IDs only need to be
// unique enough to correlate log lines; they carry no entropy contract.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := reqSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewTraceID mints a trace ID — same 16-hex-character shape as request
// IDs, same correlation-only uniqueness contract.
func NewTraceID() string { return NewRequestID() }

// NewSpanID mints a span ID.
func NewSpanID() string { return NewRequestID() }

// NewLogger returns a structured text logger writing to w at the given
// level — the daemon and worker binaries' log sink. A nil w logs to
// stderr.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// DiscardLogger returns a logger that drops everything — the default
// for library code whose caller wired no logger.
func DiscardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}
