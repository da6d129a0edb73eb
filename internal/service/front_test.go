package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/sweep"
)

// frontPins are SHA-256 digests of whole sweep results, records and
// Pareto flags included, at the analytic budget and seed 3. A change to
// how fronts are marked must leave every one of them alone: none of
// these requests declares objectives, so each front is over the default
// trio.
var frontPins = map[string]string{
	"butler-vs-steered": "55c7c31679b585e401683632af4e606f5fdae3fc4b206f73e45caee3c9adca3c",
	"dense-rack":        "3cf0c133f205739b493fe0e63aac336abf9bc80c58a92ba4f1f0a571b8d7cfe5",
	"embedded-box":      "4faf83ab8f4ff3df1c09c6e5c1e3315c02224dd92a3525ef0edffe3d65f1ff27",
	"manycore":          "66222963934bd99c0df9bcff627759d93dee6b9c2c3f12cdb4f23b2843bc3372",
	"paper-baseline":    "697fe6b5f55208ffa9e577302233bbb4e7f01d8b46ecaf238d546a95c75742c4",
	// Example specs with their constraints; power-constrained-stack has
	// its objectives removed, and a +Inf noc_saturation on every record.
	"spec:noc-hotspot":             "6a99344724399c29250a2138ada281d610cb5f93e83bce5233e6aa50a1ff127f",
	"spec:power-constrained-stack": "bf8e61e0888993156a6ec4e5bdb4cd095c27734d2b6bde00dc0b5f7aa7f4a74a",
}

// pinnedSpec reads an example spec and drops its objectives.
func pinnedSpec(t *testing.T, name string) json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile("../../examples/specs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "objectives")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// nonFinite matches a spelled NaN or infinite JSON value.
var nonFinite = regexp.MustCompile(`:"(NaN|[+-]Inf)"`)

// resultDigest hashes a result's records as the records stream encodes
// them, followed by the front indices. A result holding a NaN or
// infinite value hashes its CSV rows instead, the digest it was pinned
// under before the JSON form spelled such values.
func resultDigest(t *testing.T, res *sweep.Result) string {
	t.Helper()
	body := sweep.AppendRecordsJSON(nil, res.Records)
	if nonFinite.Match(body) {
		var buf bytes.Buffer
		if err := sweep.WriteCSV(&buf, res.Records); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
	}
	idx, err := json.Marshal(res.ParetoIndices)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(body)
	h.Write(idx)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontsPinned runs every registered scenario and two example specs
// through the manager and compares each result's digest with its pin.
func TestFrontsPinned(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	if got := len(sweep.Names()); got != 5 {
		t.Fatalf("%d registered scenarios, pins cover 5", got)
	}
	reqs := map[string]Request{
		"spec:noc-hotspot":             {Spec: pinnedSpec(t, "noc-hotspot"), Seed: 3},
		"spec:power-constrained-stack": {Spec: pinnedSpec(t, "power-constrained-stack"), Seed: 3},
	}
	for _, name := range sweep.Names() {
		reqs[name] = Request{Scenario: name, Seed: 3}
	}
	for name, want := range frontPins {
		v, err := m.Submit(reqs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitState(t, m, v.ID, StateDone)
		res, err := m.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ParetoIndices) == 0 {
			t.Errorf("%s: empty front", name)
		}
		if got := resultDigest(t, res); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// specOwnObjectives names its own two objectives and a constraint.
const specOwnObjectives = `{
	"name": "own-objectives",
	"axes": [
		{"name": "boards", "kind": "integer", "min": 2, "max": 4},
		{"name": "latency-budget-bits", "kind": "enum", "values": [100, 200]},
		{"name": "butler", "kind": "bool"}
	],
	"objectives": ["tx-power", "noc-latency"],
	"constraints": ["tx_power_dbm <= 1"]
}`

// bruteOwnFront is the front of specOwnObjectives written out by hand:
// records with tx_power_dbm <= 1 that no other such record matches or
// beats on both transmit power and NoC latency, beating it on one.
func bruteOwnFront(recs []sweep.Record) []int {
	ok := func(r sweep.Record) bool { return r.Err == "" && r.TxPowerDBm <= 1 }
	var front []int
	for i, a := range recs {
		if !ok(a) {
			continue
		}
		dominated := false
		for j, b := range recs {
			if j != i && ok(b) && b.TxPowerDBm <= a.TxPowerDBm && b.NoCLatencyCycles <= a.NoCLatencyCycles &&
				(b.TxPowerDBm < a.TxPowerDBm || b.NoCLatencyCycles < a.NoCLatencyCycles) {
				dominated = true
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// TestSweepObjectives: a sweep job's front is drawn over its own
// objectives, the spec's unless the request names others; JobView and
// /pareto report them for every job; an unknown objective is a 400.
func TestSweepObjectives(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	v := submit(t, srv, Request{Spec: json.RawMessage(specOwnObjectives), Seed: 2}, http.StatusAccepted)
	if want := []string{"tx-power", "noc-latency"}; !slices.Equal(v.Objectives, want) {
		t.Errorf("job view objectives = %v, want %v", v.Objectives, want)
	}
	pollDone(t, srv, v.ID)
	recs, _ := getRecords(t, srv, v.ID)
	var pareto struct {
		Objectives []string       `json:"objectives"`
		Front      []sweep.Record `json:"front"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+v.ID+"/pareto", &pareto)
	want := bruteOwnFront(recs)
	var got []int
	for _, r := range pareto.Front {
		got = append(got, r.Index)
	}
	if len(want) == 0 || len(want) == len(recs) || !slices.Equal(got, want) {
		t.Errorf("front = %v, brute force %v over %d records", got, want, len(recs))
	}
	for i, r := range recs {
		if r.Pareto != slices.Contains(want, i) {
			t.Errorf("record %d pareto = %v", i, r.Pareto)
		}
	}
	if !slices.Equal(pareto.Objectives, v.Objectives) {
		t.Errorf("/pareto objectives = %v, job view %v", pareto.Objectives, v.Objectives)
	}

	// A registry sweep reports the default trio; a request's objectives
	// replace it.
	trio := submit(t, srv, Request{Scenario: "paper-baseline"}, http.StatusAccepted)
	if want := []string{"tx-power", "decode-latency", "noc-saturation"}; !slices.Equal(trio.Objectives, want) {
		t.Errorf("registry sweep objectives = %v, want %v", trio.Objectives, want)
	}
	own := submit(t, srv, Request{Scenario: "paper-baseline", Objectives: []string{"noc-latency", "tx-power"}}, http.StatusAccepted)
	if want := []string{"noc-latency", "tx-power"}; !slices.Equal(own.Objectives, want) {
		t.Errorf("request objectives = %v, want %v", own.Objectives, want)
	}

	e := apiErrorOf(t, http.MethodPost, srv.URL+"/api/v1/jobs", `{"scenario": "paper-baseline", "objectives": ["tx-power", "vibes"]}`)
	if e.Status != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("unknown sweep objective = %d %q, want 400 bad_request", e.Status, e.Code)
	}
}

// knobsPin is the SHA-256 of the /api/v1/knobs body: moving the metric
// and objective catalogs between packages must not change a byte.
const knobsPin = "0756ba3ad0ff4cf6938e0373ecd0e78fa8d25705161d773fb2e5dc875d24d1bb"

func TestKnobsBytesPinned(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/knobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != knobsPin {
		t.Errorf("/api/v1/knobs digest %s, want %s", got, knobsPin)
	}
}
