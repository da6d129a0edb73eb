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

// Client implements WorkerAPI over sweepd's HTTP worker endpoints, so a
// cmd/sweepworker process anywhere on the network runs the same
// RunWorker loop as the daemon's in-process fallback workers.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a worker client for the daemon at base
// (e.g. "http://sweepd:8080").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// post sends one JSON request, abandoned when ctx ends.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
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
	resp, err := c.post(ctx, "/api/v1/workers/lease", body)
	if err != nil {
		if ctx.Err() != nil {
			return Lease{}, false, nil
		}
		return Lease{}, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return Lease{}, false, fmt.Errorf("service: lease response: %w", err)
		}
		return l, true, nil
	case http.StatusNoContent:
		return Lease{}, false, nil
	default:
		return Lease{}, false, httpError("lease", resp)
	}
}

// Heartbeat implements WorkerAPI.
func (c *Client) Heartbeat(leaseID string) (time.Duration, error) {
	resp, err := c.post(context.Background(), "/api/v1/workers/leases/"+leaseID+"/heartbeat", nil)
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
	resp, err := c.post(context.Background(), "/api/v1/workers/leases/"+leaseID+"/complete", body)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusGone:
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
	resp, err := c.post(context.Background(), "/api/v1/workers/leases/"+leaseID+"/fail", body)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusGone:
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
