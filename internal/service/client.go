package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Client implements WorkerAPI over sweepd's HTTP worker endpoints, so a
// cmd/sweepworker process anywhere on the network runs the same
// RunWorker loop as the daemon's in-process fallback workers.
//
// Every lease-scoped request (heartbeat, complete, fail) is stamped
// with the trace headers of the lease it belongs to, and reuses the
// job's trace ID as its X-Request-ID — so a retried completion carries
// the same identity as the original attempt and the daemon's access
// log joins all of a chunk's RPCs under one ID instead of fragmenting
// the trace across minted request IDs.
type Client struct {
	base string
	hc   *http.Client

	mu sync.Mutex
	// traces maps lease ID to the span context stamped on the lease.
	traces map[string]obs.SpanContext
}

// maxTrackedLeases bounds the trace map: leases the daemon never
// resolved (worker crashed mid-chunk, daemon restarted) would otherwise
// accumulate forever in a long-lived worker. Past the cap the map is
// reset — in-flight chunks lose their headers, nothing else.
const maxTrackedLeases = 4096

// NewClient returns a worker client for the daemon at base
// (e.g. "http://sweepd:8080").
func NewClient(base string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		hc:     &http.Client{Timeout: 30 * time.Second},
		traces: make(map[string]obs.SpanContext),
	}
}

// remember records the lease's span context for header stamping.
func (c *Client) remember(leaseID string, sc obs.SpanContext) {
	if leaseID == "" || sc.TraceID == "" {
		return
	}
	c.mu.Lock()
	if len(c.traces) >= maxTrackedLeases {
		c.traces = make(map[string]obs.SpanContext)
	}
	c.traces[leaseID] = sc
	c.mu.Unlock()
}

// traceOf returns the span context remembered for the lease.
func (c *Client) traceOf(leaseID string) obs.SpanContext {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traces[leaseID]
}

// forget drops a lease whose lifecycle ended (completed, failed, or
// gone) from the trace map.
func (c *Client) forget(leaseID string) {
	c.mu.Lock()
	delete(c.traces, leaseID)
	c.mu.Unlock()
}

// post sends one JSON request. A non-empty leaseID stamps the request
// with the lease's trace headers; retries of the same RPC rebuild the
// identical headers, so the daemon sees one request identity per chunk.
func (c *Client) post(path, leaseID string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if leaseID != "" {
		if sc := c.traceOf(leaseID); sc.TraceID != "" {
			req.Header.Set(obs.RequestIDHeader, sc.TraceID)
			req.Header.Set(obs.TraceIDHeader, sc.TraceID)
			if sc.SpanID != "" {
				req.Header.Set(obs.ParentSpanHeader, sc.SpanID)
			}
		}
	}
	return c.hc.Do(req)
}

// Lease implements WorkerAPI.
func (c *Client) Lease(worker string) (Lease, bool, error) {
	body, _ := json.Marshal(map[string]string{"worker": worker})
	resp, err := c.post("/api/v1/workers/lease", "", body)
	if err != nil {
		return Lease{}, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return Lease{}, false, fmt.Errorf("service: lease response: %w", err)
		}
		c.remember(l.ID, obs.SpanContext{TraceID: l.TraceID, SpanID: l.SpanID})
		return l, true, nil
	case http.StatusNoContent:
		return Lease{}, false, nil
	default:
		return Lease{}, false, httpError("lease", resp)
	}
}

// Heartbeat implements WorkerAPI.
func (c *Client) Heartbeat(leaseID string) (time.Duration, error) {
	resp, err := c.post("/api/v1/workers/leases/"+leaseID+"/heartbeat", leaseID, nil)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var v struct {
			TTLSeconds float64 `json:"ttl_seconds"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return 0, fmt.Errorf("service: heartbeat response: %w", err)
		}
		return time.Duration(v.TTLSeconds * float64(time.Second)), nil
	case http.StatusGone:
		c.forget(leaseID)
		return 0, ErrLeaseGone
	default:
		return 0, httpError("heartbeat", resp)
	}
}

// Complete implements WorkerAPI.
func (c *Client) Complete(leaseID string, recs []sweep.Record) error {
	return c.complete(leaseID, recs, nil)
}

// CompleteTraced implements TracedCompleter: the records plus the
// worker-side spans of this chunk, in one request.
func (c *Client) CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	return c.complete(leaseID, recs, spans)
}

func (c *Client) complete(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	// Chunk completions are the fattest bodies on the worker wire; the
	// record encoder builds one in a single buffer, emitting the same
	// bytes json.Marshal would per record.
	body := make([]byte, 0, 128+256*len(recs))
	body = append(body, `{"records":`...)
	body, err := sweep.AppendRecordsJSON(body, recs)
	if err != nil {
		return fmt.Errorf("service: encode records: %w", err)
	}
	if len(spans) > 0 {
		sp, err := json.Marshal(spans)
		if err != nil {
			return fmt.Errorf("service: encode spans: %w", err)
		}
		body = append(body, `,"spans":`...)
		body = append(body, sp...)
	}
	body = append(body, '}')
	resp, err := c.post("/api/v1/workers/leases/"+leaseID+"/complete", leaseID, body)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		c.forget(leaseID)
		return nil
	case http.StatusGone:
		c.forget(leaseID)
		return ErrLeaseGone
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("%w: %s", ErrBadRecords, bodyError(resp).Message)
	default:
		return httpError("complete", resp)
	}
}

// FailLease implements WorkerAPI.
func (c *Client) FailLease(leaseID, reason string) error {
	body, _ := json.Marshal(map[string]string{"error": reason})
	resp, err := c.post("/api/v1/workers/leases/"+leaseID+"/fail", leaseID, body)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		c.forget(leaseID)
		return nil
	case http.StatusGone:
		c.forget(leaseID)
		return ErrLeaseGone
	default:
		return httpError("fail", resp)
	}
}

// drain finishes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// bodyError decodes the response's error envelope into a typed
// *APIError (tolerating legacy and bare bodies).
func bodyError(resp *http.Response) *APIError {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return decodeAPIError(resp, raw)
}

// httpError wraps the decoded envelope with the failing operation, so
// callers can errors.As for the *APIError and switch on its Code.
func httpError(op string, resp *http.Response) error {
	return fmt.Errorf("service: %s: %w", op, bodyError(resp))
}
