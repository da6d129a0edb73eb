package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Client is the Go client of sweepd's HTTP API. It implements WorkerAPI
// over the worker endpoints, so a cmd/sweepworker process anywhere on
// the network runs the same RunWorker loop as the daemon's in-process
// fallback workers, and it serves cmd/sweep's job calls. Every non-2xx
// response comes back as a wrapped *APIError, which errors.Is matches
// against the service's sentinels (ErrLeaseGone, ErrUnknownJob, ...).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base
// (e.g. "http://sweepd:8080").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// do sends one request over hc, abandoned when ctx ends; a POST carries
// body as JSON. A 2xx response is returned for the caller to read and
// close. Any other status is drained and returned as the decoded error
// envelope, wrapped with op.
func (c *Client) do(ctx context.Context, hc *http.Client, method, path, op string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer drain(resp)
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("service: %s: %w", op, decodeAPIError(resp.StatusCode, resp.Status, raw))
	}
	return resp, nil
}

// doJSON is do on the client's 30 s HTTP client, decoding the response
// body into v (nil discards it).
func (c *Client) doJSON(method, path, op string, body []byte, v any) error {
	resp, err := c.do(context.Background(), c.hc, method, path, op, body)
	if err != nil {
		return err
	}
	defer drain(resp)
	if v == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("service: %s response: %w", op, err)
	}
	return nil
}

// stream opens a GET whose body the caller reads to the end. It has no
// whole-request timeout of its own: a long stream is bounded by ctx.
func (c *Client) stream(ctx context.Context, path, op string) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.DefaultClient, http.MethodGet, path, op, nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Lease implements WorkerAPI.
func (c *Client) Lease(worker string) (Lease, bool, error) {
	return c.lease(context.Background(), worker)
}

// lease is Lease bounded by ctx, the contextLeaser RunWorker prefers: a
// request the daemon holds while waiting for work is abandoned when the
// worker stops, so stopping never waits out the hold. An abandoned
// request reports no work, as the in-process lease does.
func (c *Client) lease(ctx context.Context, worker string) (Lease, bool, error) {
	body, _ := json.Marshal(map[string]string{"worker": worker})
	resp, err := c.do(ctx, c.hc, http.MethodPost, "/api/v1/workers/lease", "lease", body)
	if err != nil {
		if ctx.Err() != nil {
			return Lease{}, false, nil
		}
		return Lease{}, false, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNoContent {
		return Lease{}, false, nil
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return Lease{}, false, fmt.Errorf("service: lease response: %w", err)
	}
	return l, true, nil
}

// Heartbeat implements WorkerAPI.
func (c *Client) Heartbeat(leaseID string) (time.Duration, error) {
	var v struct {
		TTLSeconds float64 `json:"ttl_seconds"`
	}
	if err := c.doJSON(http.MethodPost, "/api/v1/workers/leases/"+leaseID+"/heartbeat", "heartbeat", nil, &v); err != nil {
		return 0, err
	}
	return time.Duration(v.TTLSeconds * float64(time.Second)), nil
}

// Complete posts the chunk's records without spans.
func (c *Client) Complete(leaseID string, recs []sweep.Record) error {
	return c.CompleteTraced(leaseID, recs, nil)
}

// CompleteTraced implements WorkerAPI: the records plus the worker-side
// spans of this chunk, in one request.
func (c *Client) CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	// Chunk completions are the fattest bodies on the worker wire; the
	// record encoder builds one in a single buffer, emitting the bytes
	// Record.MarshalJSON would per record.
	body := make([]byte, 0, 128+256*len(recs))
	body = append(body, `{"records":`...)
	body = sweep.AppendRecordsJSON(body, recs)
	if len(spans) > 0 {
		sp, err := json.Marshal(spans)
		if err != nil {
			return fmt.Errorf("service: encode spans: %w", err)
		}
		body = append(body, `,"spans":`...)
		body = append(body, sp...)
	}
	body = append(body, '}')
	return c.doJSON(http.MethodPost, "/api/v1/workers/leases/"+leaseID+"/complete", "complete", body, nil)
}

// FailLease implements WorkerAPI.
func (c *Client) FailLease(leaseID, reason string) error {
	body, _ := json.Marshal(map[string]string{"error": reason})
	return c.doJSON(http.MethodPost, "/api/v1/workers/leases/"+leaseID+"/fail", "fail", body, nil)
}

// Submit posts a job request and returns the accepted job's snapshot.
func (c *Client) Submit(req Request) (JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	err = c.doJSON(http.MethodPost, "/api/v1/jobs", "submit", body, &v)
	return v, err
}

// Get returns a snapshot of the job.
func (c *Client) Get(id string) (JobView, error) {
	var v JobView
	err := c.doJSON(http.MethodGet, "/api/v1/jobs/"+id, "job", nil, &v)
	return v, err
}

// Records opens a done job's record stream: NDJSON, one record per line.
func (c *Client) Records(ctx context.Context, id string) (io.ReadCloser, error) {
	return c.stream(ctx, "/api/v1/jobs/"+id+"/records", "records")
}

// Trace opens the job's raw span stream: NDJSON, one span per line.
func (c *Client) Trace(ctx context.Context, id string) (io.ReadCloser, error) {
	return c.stream(ctx, "/api/v1/jobs/"+id+"/trace", "trace")
}

// Timeline returns the job's derived phase timeline.
func (c *Client) Timeline(id string) (Timeline, error) {
	var tl Timeline
	err := c.doJSON(http.MethodGet, "/api/v1/jobs/"+id+"/timeline", "timeline", nil, &tl)
	return tl, err
}

// FleetStats returns the per-worker throughput profiles and the
// straggler baseline.
func (c *Client) FleetStats() (FleetStats, error) {
	var st FleetStats
	err := c.doJSON(http.MethodGet, "/api/v1/fleet/stats", "fleet stats", nil, &st)
	return st, err
}

// drain finishes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
