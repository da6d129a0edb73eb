package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
)

// EngineVersion names the evaluation semantics of this package. Any
// change that alters the records produced for a fixed (scenario, point,
// budget, seed) — a new pipeline stage, a different sub-stream layout, a
// model fix — must bump it, so stale store entries miss instead of
// silently serving results the current engine would not reproduce.
//
// History of the deliberate bumps since engine 2:
//   - 3: the compiled NoC evaluator sums latency per channel (hop-weighted
//     traffic share times the router delay, plus each channel's load
//     times its waiting time) instead of per route class. The algebra is
//     exact, but the summation order changed, so noc_latency_cycles moves
//     in its last bits (at most 3.8e-13 relative over the registered
//     scenarios and 16-319-module grids). Topology choice, saturation
//     and every other record field are byte-identical to engine 2.
//   - 4: compiling the NoC evaluator sums each source router's traffic
//     up its route tree (subtree flows per channel) instead of adding
//     every router pair's share along its route, and derives the
//     hop-weighted share from the channel loads. Again exact algebra in
//     a new summation order: noc_latency_cycles moves by at most 6.7e-13
//     and noc_saturation by at most 2.2e-14 relative over the registered
//     scenarios and three 912-point 16-319-module grids (one per traffic
//     pattern; bit-complement records are byte-identical). Topology
//     choice and every other field are byte-identical to engine 3.
//   - 5: each Monte-Carlo sub-model (a code's BER, a stack's simulated
//     latency) draws from rng.New(seed).Split(hash of its content key)
//     instead of the point's Split(index+1) stream, and EvaluatePoints
//     runs it once for every point that shares it. ber,
//     sim_latency_cycles and sim_latency_ci95 move (ber_codewords and
//     sim_replications can, where the adaptive stop lands elsewhere).
//     The adaptive BER run lost its error-free early out: a run with
//     no frame error spends the whole BERMaxCodewords instead of
//     stopping at a quarter with BER 0. Every analytic field is
//     byte-identical to engine 4, and the analytic budget's records
//     are unchanged.
const EngineVersion = 5

// keyEnvelope is the canonical content of a point's address. Marshalled
// with encoding/json the field order is fixed by declaration order, so
// equal inputs hash identically across processes and platforms.
type keyEnvelope struct {
	Engine   int    `json:"engine"`
	Scenario string `json:"scenario"`
	Point    Point  `json:"point"`
	Budget   Budget `json:"budget"`
	Seed     uint64 `json:"seed"`
}

// PointKey returns the content address of one evaluated design point:
// the hex SHA-256 of the canonical JSON of (engine version, scenario,
// point, budget, sweep seed). Everything Evaluate's output depends on is
// in the envelope — each sub-model's stream is a pure function of (seed,
// sub-model content), and that content is a function of (point, budget)
// — so a key collision means the records are identical and a key change
// means the point must be recomputed.
func PointKey(scenario string, pt Point, b Budget, seed uint64) string {
	env, err := json.Marshal(keyEnvelope{
		Engine:   EngineVersion,
		Scenario: scenario,
		Point:    pt,
		Budget:   b,
		Seed:     seed,
	})
	if err != nil {
		// Point and Budget are plain data; Marshal cannot fail on them.
		panic("sweep: point key envelope: " + err.Error())
	}
	sum := sha256.Sum256(env)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// Keyer computes PointKeys for a fixed (scenario, budget, seed)
// context. Within one sweep only the point varies between keys, so the
// envelope's constant head and tail are rendered once, and each key
// costs one reflection-free point encoding (the spec through
// appendSpecJSON, the encoder records use) plus the hash — on a fully
// warm store this is the dominant per-point cost. Keys are
// byte-identical to PointKey: encoding/json emits a struct as its
// fields in declaration order with no whitespace, so splicing an
// identically encoded Point between the pre-rendered segments
// reproduces the canonical envelope exactly (pinned by
// TestKeyerMatchesPointKey and FuzzRecordColumnarRoundTrip).
//
// A Keyer is immutable after construction and safe for concurrent use.
type Keyer struct {
	head, tail []byte
}

// NewKeyer pre-renders the constant envelope segments.
func NewKeyer(scenario string, b Budget, seed uint64) *Keyer {
	bud, err := json.Marshal(b)
	if err != nil {
		panic("sweep: keyer budget: " + err.Error())
	}
	var head []byte
	head = append(head, `{"engine":`...)
	head = strconv.AppendInt(head, EngineVersion, 10)
	head = append(head, `,"scenario":`...)
	head = AppendJSONString(head, scenario)
	head = append(head, `,"point":{"index":`...)
	var tail []byte
	tail = append(tail, `},"budget":`...)
	tail = append(tail, bud...)
	tail = append(tail, `,"seed":`...)
	tail = strconv.AppendUint(tail, seed, 10)
	tail = append(tail, '}')
	return &Keyer{head: head, tail: tail}
}

// Key returns PointKey(scenario, pt, budget, seed) for the Keyer's
// context. A NaN or infinite spec float panics, as PointKey's
// json.Marshal failure does.
func (k *Keyer) Key(pt Point) string {
	if err := finiteSpec(pt.Spec); err != nil {
		panic("sweep: keyer point: " + err.Error())
	}
	var scratch [1024]byte
	env := append(scratch[:0], k.head...)
	env = strconv.AppendInt(env, int64(pt.Index), 10)
	env = append(env, `,"label":`...)
	env = AppendJSONString(env, pt.Label)
	env = append(env, `,"spec":`...)
	env = appendSpecJSON(env, pt.Spec)
	env = append(env, k.tail...)
	sum := sha256.Sum256(env)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
