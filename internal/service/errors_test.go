package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestErrorTable pins every row of the v1 error contract and checks it
// round-trips: the envelope the server writes for a wrapped sentinel
// decodes back into an *APIError under the same status and code, which
// errors.Is matches against that sentinel.
func TestErrorTable(t *testing.T) {
	want := []errorRow{
		{ErrShutdown, 503, "shutdown"},
		{ErrBadRequest, 400, "bad_request"},
		{ErrBadSpec, 400, "spec_invalid"},
		{ErrUnknownJob, 404, "not_found"},
		{ErrNoTrace, 404, "not_found"},
		{ErrNoStore, 404, "not_found"},
		{ErrNotDone, 409, "not_done"},
		{ErrLeaseGone, 410, "lease_gone"},
		{ErrBadRecords, 422, "bad_records"},
		{nil, 500, "internal"},
	}
	if len(errorTable) != len(want) {
		t.Fatalf("error table has %d rows, want %d", len(errorTable), len(want))
	}
	for i, w := range want {
		if r := errorTable[i]; r != w {
			t.Errorf("row %d = (%v, %d, %s), want (%v, %d, %s)", i, r.err, r.status, r.code, w.err, w.status, w.code)
		}
		err := fmt.Errorf("while testing: %w", w.err)
		if w.err == nil {
			err = errors.New("something unforeseen")
		}
		rec := httptest.NewRecorder()
		writeAPIError(rec, err)
		e := decodeAPIError(rec.Code, "", rec.Body.Bytes())
		if rec.Code != w.status || e.Status != w.status || e.Code != w.code || e.Message != err.Error() {
			t.Errorf("row %d: wrote %d and decoded %+v, want %d %s %q", i, rec.Code, e, w.status, w.code, err)
		}
		if w.err != nil && !errors.Is(e, w.err) {
			t.Errorf("row %d: decoded %v does not match its sentinel %v", i, e, w.err)
		}
	}
	// A decoded 404 stands for every sentinel of its code.
	notFound := decodeAPIError(http.StatusNotFound, "404 Not Found", nil)
	for _, sentinel := range []error{ErrUnknownJob, ErrNoTrace, ErrNoStore} {
		if !errors.Is(notFound, sentinel) {
			t.Errorf("a 404 does not match %v", sentinel)
		}
	}
	if errors.Is(notFound, ErrLeaseGone) || errors.Is(notFound, ErrNotDone) {
		t.Error("a 404 matches a sentinel of another code")
	}
}

// TestAPIErrorDecodeLegacy: bodies without a code — the legacy
// {"error":"..."} shape and bare text — take the code of their status's
// first row, so a bare 400 is bad_request, not spec_invalid.
func TestAPIErrorDecodeLegacy(t *testing.T) {
	cases := []struct {
		status     int
		body, code string
		msg        string
	}{
		{410, `{"error":"lease expired"}`, CodeLeaseGone, "lease expired"},
		{410, "", CodeLeaseGone, "410 Gone"},
		{400, "no such field\n", CodeBadRequest, "no such field"},
		{502, "<html>bad gateway</html>", CodeInternal, "<html>bad gateway</html>"},
	}
	for _, c := range cases {
		e := decodeAPIError(c.status, fmt.Sprintf("%d %s", c.status, http.StatusText(c.status)), []byte(c.body))
		if e.Status != c.status || e.Code != c.code || e.Message != c.msg {
			t.Errorf("%d %q decoded to %+v, want code %s message %q", c.status, c.body, e, c.code, c.msg)
		}
	}

	// Through the client: an older daemon's legacy and bare 410s are
	// still a gone lease.
	for _, body := range []string{`{"error":"lease expired"}`, ""} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusGone)
			io.WriteString(w, body)
		}))
		c := NewClient(srv.URL)
		if _, err := c.Heartbeat("lease-1"); !errors.Is(err, ErrLeaseGone) {
			t.Errorf("heartbeat against a %q 410 = %v, want ErrLeaseGone", body, err)
		}
		if err := c.Complete("lease-1", nil); !errors.Is(err, ErrLeaseGone) {
			t.Errorf("complete against a %q 410 = %v, want ErrLeaseGone", body, err)
		}
		srv.Close()
	}
}

// FuzzAPIErrorDecode: response bodies and statuses come from outside
// the process, so no input may panic the decoder, and every result
// carries its status and a code.
func FuzzAPIErrorDecode(f *testing.F) {
	f.Add(410, []byte(`{"error":{"code":"lease_gone","message":"gone"}}`))
	f.Add(400, []byte(`{"error":"legacy"}`))
	f.Add(404, []byte(`{"error":{"code":"","message":7}}`))
	f.Add(500, []byte(`{"error":null}`))
	f.Add(0, []byte(""))
	f.Add(-1, []byte("\xff{"))
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		e := decodeAPIError(status, "status", body)
		if e == nil || e.Status != status || e.Code == "" {
			t.Fatalf("decodeAPIError(%d, %q) = %+v", status, body, e)
		}
		_ = e.Error()
		errors.Is(e, ErrLeaseGone)
	})
}

// TestClientJobCalls drives the client's job-side calls, the ones
// cmd/sweep makes, against a traced daemon, and checks their errors
// match the service's sentinels.
func TestClientJobCalls(t *testing.T) {
	m := New(Options{JobWorkers: 1, Trace: obs.NewCollector(256)})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := NewClient(srv.URL + "/")

	v, err := c.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !v.State.Terminal(); {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", v.ID, v.State)
		}
		time.Sleep(5 * time.Millisecond)
		if v, err = c.Get(v.ID); err != nil {
			t.Fatal(err)
		}
	}
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	_, wantRecs := getRecords(t, srv, v.ID)
	read := func(open func(context.Context, string) (io.ReadCloser, error)) string {
		t.Helper()
		rc, err := open(context.Background(), v.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		body, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if got := read(c.Records); got != string(wantRecs) {
		t.Fatal("client record stream differs from the daemon's")
	}
	if spans := read(c.Trace); !strings.HasPrefix(spans, "{") || strings.Count(spans, "\n") < 2 {
		t.Fatalf("trace stream is not span NDJSON: %q", spans)
	}
	tl, err := c.Timeline(v.ID)
	if err != nil || tl.JobID != v.ID || tl.ComputedPoints != v.Progress.Total {
		t.Fatalf("timeline = %+v, %v", tl, err)
	}
	if st, err := c.FleetStats(); err != nil || st.StragglerFactor != stragglerFactor {
		t.Fatalf("fleet stats = %+v, %v", st, err)
	}

	if _, err := c.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job = %v, want ErrUnknownJob", err)
	}
	if _, err := c.Records(context.Background(), "job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job's records = %v, want ErrUnknownJob", err)
	}
	if _, err := c.Submit(Request{Spec: []byte(`{"name":"x","axes":[]}`)}); !errors.Is(err, ErrBadSpec) || errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid spec = %v, want ErrBadSpec only", err)
	}
	var apiErr *APIError
	if _, err := c.Submit(Request{Scenario: "nope"}); !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Errorf("unknown scenario = %v, want a bad_request *APIError", err)
	}

	// An untraced daemon has no trace to stream.
	untraced := New(Options{JobWorkers: 1})
	defer untraced.Shutdown(context.Background())
	srv2 := httptest.NewServer(NewHandler(untraced))
	defer srv2.Close()
	if _, err := NewClient(srv2.URL).Trace(context.Background(), v.ID); !errors.Is(err, ErrNoTrace) {
		t.Errorf("trace on an untraced daemon = %v, want ErrNoTrace", err)
	}
}

// TestFleetWorkerNonFiniteRecords: every record of the
// power-constrained example has a +Inf noc_saturation. An HTTP worker
// carries them in its completion body like any other value, so the
// fleet job ends done, without a failed lease, with records
// byte-identical to an in-process run.
func TestFleetWorkerNonFiniteRecords(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/power-constrained-stack.json")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: 200 * time.Millisecond})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, NewClient(srv.URL), WorkerOptions{Name: "w", Workers: 1})
	}()
	defer func() { stop(); <-done }()

	local := New(Options{JobWorkers: 1})
	defer local.Shutdown(context.Background())
	var got [2][]byte
	for i, mgr := range []*Manager{m, local} {
		v, err := mgr.Submit(Request{Spec: doc})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, mgr, v.ID, StateDone)
		res, err := mgr.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = sweep.AppendRecordsJSON(nil, res.Records)
	}
	if !bytes.Equal(got[0], got[1]) || !bytes.Contains(got[0], []byte(`"noc_saturation":"+Inf"`)) {
		t.Fatalf("fleet records\n%s\nwant the in-process records, +Inf spelled\n%s", got[0], got[1])
	}
	fleet := m.FleetStats()
	if len(fleet.Workers) != 1 || fleet.Workers[0].Failures != 0 {
		t.Fatalf("fleet = %+v, want one worker without a failed lease", fleet.Workers)
	}
}

// TestWriteJSONUnencodable: a payload encoding/json refuses answers a
// 500 internal error envelope, never a 2xx with an empty or cut body.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, v := range []any{
		map[string]float64{"best": math.Inf(1)},
		struct{ C chan int }{make(chan int)},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%T: body %q is not an error envelope: %v", v, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal {
			t.Fatalf("%T: status %d, error %+v; want 500 %q", v, rec.Code, env.Error, CodeInternal)
		}
	}
}
