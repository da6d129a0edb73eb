package obs

import (
	"context"
	"log/slog"
	"testing"
)

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context has a request ID")
	}
	ctx = WithRequestID(ctx, "abc123")
	if RequestID(ctx) != "abc123" {
		t.Fatalf("request ID = %q", RequestID(ctx))
	}
}

func TestNewRequestIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("request ID %q has length %d, want 16", id, len(id))
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("request ID %q is not lowercase hex", id)
			}
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
	if id := NewTraceID(); len(id) != 16 {
		t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
	}
	if id := NewSpanID(); len(id) != 16 {
		t.Fatalf("span ID %q has length %d, want 16", id, len(id))
	}
}

func TestDiscardLoggerDropsEverything(t *testing.T) {
	// Must not panic and must not be enabled at any level used in code.
	l := DiscardLogger()
	l.Error("nothing")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger claims to be enabled")
	}
}
