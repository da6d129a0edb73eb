package spec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/search"
	"repro/internal/sweep"
)

// builtinSpaces pins the six built-in search spaces as GET
// /api/v1/spaces lists them: name, description and every parameter in
// order with its kind and bounds. The run column is the SHA-256 of an
// analytic optimization over the space (seed 3, 3 generations of 8):
// each record's PointKey and sweep.AppendRecordJSON bytes, so a changed
// base field, setter or parameter order shows up even where the row
// does not.
var builtinSpaces = []struct {
	row string
	run string
}{
	{`{"name":"butler-vs-steered","description":"beamforming realisation against board spacing","params":[` +
		`{"name":"butler","kind":"bool","min":0,"max":1},` +
		`{"name":"board-spacing-m","kind":"continuous","min":0.05,"max":0.2}]}`,
		"618aaffcc83f60ff132d4b3250fe8718793b7176646f8dbb8f57e8aff72d73ae"},
	{`{"name":"dense-rack","description":"datacenter rack density: board count against per-link rate","params":[` +
		`{"name":"boards","kind":"integer","min":8,"max":16},` +
		`{"name":"link-rate-gbps","kind":"continuous","min":50,"max":200}]}`,
		"8816f796c7a1ae1b8701df02b30e820987daf71bbe4959ac0724ef4b6101f97b"},
	{`{"name":"embedded-box","description":"small sealed enclosure: board count against modest link rates","params":[` +
		`{"name":"boards","kind":"integer","min":2,"max":3},` +
		`{"name":"link-rate-gbps","kind":"continuous","min":10,"max":50}]}`,
		"4ce67221239a175ff19189a1c44f57503cec2a5ea660759bee1f8d0fb1ecc749"},
	{`{"name":"full-design","description":"every SystemSpec knob at once: the widest search the evaluator supports","params":[` +
		`{"name":"boards","kind":"integer","min":2,"max":16},` +
		`{"name":"nodes-per-board","kind":"integer","min":4,"max":16},` +
		`{"name":"board-spacing-m","kind":"continuous","min":0.05,"max":0.2},` +
		`{"name":"link-rate-gbps","kind":"continuous","min":10,"max":200},` +
		`{"name":"latency-budget-bits","kind":"integer","min":100,"max":400},` +
		`{"name":"stack-modules","kind":"integer","min":16,"max":512},` +
		`{"name":"stack-injection-rate","kind":"continuous","min":0.05,"max":0.15},` +
		`{"name":"butler","kind":"bool","min":0,"max":1}]}`,
		"74720bc059abe3064447929f42597ed9b3829f52e0f69c0923e49d4b8d3e8b3c"},
	{`{"name":"manycore","description":"many-stack manycore: NiCS module count against injection load","params":[` +
		`{"name":"stack-modules","kind":"integer","min":64,"max":512},` +
		`{"name":"stack-injection-rate","kind":"continuous","min":0.05,"max":0.15}]}`,
		"b1d499911c8e7cf55d92d293140c47f6c1ceec0397f6c592aa8c69372c097ae6"},
	{`{"name":"paper-baseline","description":"the paper's 4-board box: decode-latency budget and beamforming realisation","params":[` +
		`{"name":"latency-budget-bits","kind":"integer","min":100,"max":400},` +
		`{"name":"butler","kind":"bool","min":0,"max":1}]}`,
		"96498cb01c9f7b6380f63aedf8fb46be8ef7d4ad84d85483fc7ccb907267dab1"},
}

func TestBuiltinSpacesPinned(t *testing.T) {
	names := search.Names()
	if len(names) != len(builtinSpaces) {
		t.Fatalf("registered spaces %v, want %d", names, len(builtinSpaces))
	}
	for i, want := range builtinSpaces {
		sp, err := search.Get(names[i])
		if err != nil {
			t.Fatal(err)
		}
		row, err := json.Marshal(struct {
			Name        string         `json:"name"`
			Description string         `json:"description"`
			Params      []search.Param `json:"params"`
		}{sp.Name, sp.Description, sp.Params})
		if err != nil {
			t.Fatal(err)
		}
		if string(row) != want.row {
			t.Errorf("space %q row\n got %s\nwant %s", sp.Name, row, want.row)
		}
		if got := optimizeDigest(t, sp); got != want.run {
			t.Errorf("space %q optimize digest = %s, want %s", sp.Name, got, want.run)
		}
	}
}

// optimizeDigest hashes the PointKey and encoded record of every
// evaluation of a small analytic optimization over sp.
func optimizeDigest(t *testing.T, sp search.Space) string {
	t.Helper()
	res, err := search.Optimize(context.Background(), search.Options{
		Space:       sp,
		Seed:        3,
		Generations: 3,
		Population:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sweep.AnalyticBudget()
	h := sha256.New()
	var line []byte
	for _, rec := range res.Records {
		pt := sweep.Point{Index: rec.Index, Label: rec.Label, Spec: rec.Spec}
		h.Write([]byte(sweep.PointKey(rec.Scenario, pt, b, res.Seed) + "\n"))
		if line, err = sweep.AppendRecordJSON(line[:0], rec); err != nil {
			t.Fatal(err)
		}
		h.Write(append(line, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}
