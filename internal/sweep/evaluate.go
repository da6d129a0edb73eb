package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/noc"
	"repro/internal/noc/sim"
	"repro/internal/rng"
)

// Budget controls the Monte-Carlo effort spent on one design point.
// The zero value (name "analytic") runs the analytic pipeline only.
type Budget struct {
	Name string

	// BERSim enables a bit-error-rate measurement of the chosen
	// LDPC-CC at BEREbN0DB, stopped adaptively at BERRelCI.
	BERSim          bool
	BEREbN0DB       float64
	BERRelCI        float64
	BERMaxCodewords int
	BERMaxIter      int
	// TermLength is the termination length of the simulated
	// convolutional code.
	TermLength int

	// NoCSim enables event-simulator validation of the chosen stack
	// topology, replicated adaptively until the mean-latency confidence
	// interval shrinks to NoCRelCI.
	NoCSim           bool
	NoCMinReps       int
	NoCMaxReps       int
	NoCRelCI         float64
	NoCMeasureCycles float64
}

// AnalyticBudget evaluates points through the analytic models only —
// microseconds per point, the right default for wide grids.
func AnalyticBudget() Budget { return Budget{Name: "analytic"} }

// SmokeBudget adds seconds-scale Monte-Carlo per sweep: a coarse BER
// point and a short simulator cross-check, both adaptively stopped.
func SmokeBudget() Budget {
	return Budget{
		Name:   "smoke",
		BERSim: true, BEREbN0DB: 3, BERRelCI: 0.3, BERMaxCodewords: 256, BERMaxIter: 20, TermLength: 16,
		NoCSim: true, NoCMinReps: 2, NoCMaxReps: 4, NoCRelCI: 0.05, NoCMeasureCycles: 2000,
	}
}

// StandardBudget is the recording fidelity: tighter confidence targets
// and room for the controller to spend where the variance demands it.
func StandardBudget() Budget {
	return Budget{
		Name:   "standard",
		BERSim: true, BEREbN0DB: 3, BERRelCI: 0.1, BERMaxCodewords: 6000, BERMaxIter: 50, TermLength: 30,
		NoCSim: true, NoCMinReps: 3, NoCMaxReps: 10, NoCRelCI: 0.02, NoCMeasureCycles: 6000,
	}
}

// ParseBudget maps a CLI string to a Budget.
func ParseBudget(s string) (Budget, error) {
	switch strings.ToLower(s) {
	case "", "analytic":
		return AnalyticBudget(), nil
	case "smoke":
		return SmokeBudget(), nil
	case "standard":
		return StandardBudget(), nil
	default:
		return Budget{}, fmt.Errorf("sweep: unknown budget %q (analytic|smoke|standard)", s)
	}
}

// Evaluate runs one grid point through the design pipeline and the
// budgeted Monte-Carlo stages, sharing nothing with other points: it
// runs the point's own BER and NoC sub-models. stream must be the job's
// root stream, rng.New(seed), not a per-point one: each sub-model draws
// from stream.Split(hash of its content key) (see subModel), so
// Evaluate returns exactly the record EvaluatePoints gives the point
// under that seed. Evaluate is safe to call concurrently.
func Evaluate(scenario string, pt Point, stream *rng.Stream, b Budget) Record {
	rec, des := designRecord(scenario, pt)
	if des == nil || !(b.BERSim || b.NoCSim) {
		return rec
	}
	return withModels(rec, pointModels(des, pt.Spec, b), stream, b)
}

// ModelSignature names the Monte-Carlo sub-models the budget runs for
// pt: their content keys, joined. Points with equal signatures share
// every sub-model result, so evaluating them in one EvaluatePoints call
// runs each sub-model once for all of them; the fleet's chunk planner
// keeps such points in one chunk. It is "" under the analytic budget,
// which designs no point here, and for a point the design pipeline
// rejects.
func ModelSignature(pt Point, b Budget) string {
	if !(b.BERSim || b.NoCSim) {
		return ""
	}
	_, des := designRecord("", pt)
	if des == nil {
		return ""
	}
	ms := pointModels(des, pt.Spec, b)
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.key()
	}
	// Keys quote their strings, so none holds a raw newline.
	return strings.Join(keys, "\n")
}

// withModels runs the sub-models and applies them to rec. It is apart
// from Evaluate because the interface calls move rec and the streams
// they are handed to the heap: the analytic budget never gets here, so
// its Evaluate allocates no more than the design pipeline does.
func withModels(rec Record, ms []subModel, root *rng.Stream, b Budget) Record {
	for _, m := range ms {
		m.run(modelStream(root, m.key()), b)
		m.apply(&rec, b)
	}
	return rec
}

// designRecord runs core.DesignSystem on the point and fills the
// record's analytic fields. The design is nil when the pipeline
// rejected the point; the record carries the error then.
func designRecord(scenario string, pt Point) (Record, *core.Design) {
	rec := Record{Scenario: scenario, Index: pt.Index, Label: pt.Label, Spec: pt.Spec}
	des, err := core.DesignSystem(pt.Spec)
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	rec.TxPowerDBm = des.WorstTxPowerDBm()
	rec.SpectralEfficiency = des.SpectralEfficiency
	rec.CodeLifting = des.Code.Lifting
	rec.CodeWindow = des.Code.Window
	rec.DecodeLatencyBits = des.Code.LatencyBits
	rec.Topology = des.Stack.Topology.Name()
	rec.NoCLatencyCycles = des.Stack.LatencyCycles
	rec.NoCSaturation = des.Stack.SaturationRate
	return rec, des
}

// A subModel is one Monte-Carlo stage of a design point whose result
// depends on nothing but its content key: the budget's BER measurement
// of the chosen code, or its event-simulator validation of the chosen
// stack. It draws all its randomness from root.Split(h), h the hash of
// the key, so points that share a key share the result bit for bit,
// whichever points, chunk, worker or fleet process run it.
type subModel interface {
	key() string
	// run simulates the sub-model from its own stream, modelStream of
	// the job's root and its key, and keeps the result; apply copies it
	// into a record.
	run(s *rng.Stream, b Budget)
	apply(rec *Record, b Budget)
}

// pointModels lists the sub-models the budget runs for a designed
// point: none under the analytic budget.
func pointModels(des *core.Design, spec core.SystemSpec, b Budget) []subModel {
	var ms []subModel
	if b.BERSim {
		ms = append(ms, newBERModel(des.Code, b))
	}
	if b.NoCSim {
		ms = append(ms, newNoCModel(des.Stack.Topology, spec, b))
	}
	return ms
}

// modelKey renders a sub-model's content key: a domain tag, then every
// input its result depends on. Floats take their shortest round-trip
// form and strings are quoted, so equal keys mean bit-equal inputs.
type modelKey []byte

func (k modelKey) int(v int) modelKey { return strconv.AppendInt(append(k, ' '), int64(v), 10) }
func (k modelKey) float(v float64) modelKey {
	return strconv.AppendFloat(append(k, ' '), v, 'g', -1, 64)
}
func (k modelKey) str(v string) modelKey { return strconv.AppendQuote(append(k, ' '), v) }

// modelStream is a sub-model's private stream: the root split by the
// first 64 bits of the key's SHA-256.
func modelStream(root *rng.Stream, key string) *rng.Stream {
	sum := sha256.Sum256([]byte(key))
	return root.Split(binary.BigEndian.Uint64(sum[:8]))
}

// berModel is the BER measurement of one LDPC-CC at the budget's
// operating point.
type berModel struct {
	k    string
	code core.CodePlan
	res  ldpc.BERResult
}

func newBERModel(c core.CodePlan, b Budget) *berModel {
	k := modelKey("ber").int(c.Lifting).int(c.Window).float(c.Rate).
		float(b.BEREbN0DB).int(b.BERMaxIter).int(b.TermLength).float(b.BERRelCI).int(b.BERMaxCodewords)
	return &berModel{k: string(k), code: c}
}

func (m *berModel) key() string { return m.k }

func (m *berModel) run(s *rng.Stream, b Budget) {
	code := ldpc.LiftConvolutional(ldpc.PaperSpreading(), b.TermLength, m.code.Lifting, 3)
	m.res = ldpc.SimulateBER(ldpc.BERParams{
		Code: code, Alg: ldpc.SumProduct, MaxIter: b.BERMaxIter,
		Window: m.code.Window, Rate: m.code.Rate,
		EbN0DB:       b.BEREbN0DB,
		MaxCodewords: b.BERMaxCodewords,
		RelCI:        b.BERRelCI,
		Seed:         s.Uint64(),
		// The executor already runs sub-models in parallel; a full
		// inner decode pool per model would oversubscribe ~NCPU^2.
		Workers: 1,
	})
}

func (m *berModel) apply(rec *Record, b Budget) {
	rec.BEREbN0DB = b.BEREbN0DB
	rec.BER = m.res.BER
	rec.BERCodewords = m.res.Codewords
}

// nocModel is the event-simulator validation of one stack topology
// under one traffic pattern and load, replicated adaptively.
type nocModel struct {
	k         string
	topo      *noc.Mesh
	traffic   noc.TrafficPattern
	injection float64
	est       MeanEstimator
}

func newNoCModel(topo *noc.Mesh, spec core.SystemSpec, b Budget) *nocModel {
	// The simulator offers the same pattern the analytic chooser
	// planned for (uniform when the spec has no traffic section).
	traffic := spec.Traffic.NoCPattern()
	k := modelKey("noc").str(topo.Name()).int(spec.StackModules).str(traffic.String())
	if h, ok := traffic.(noc.Hotspot); ok {
		// The pattern's name rounds the fraction; key the exact one.
		k = k.int(h.Module).float(h.Fraction)
	}
	k = k.float(spec.StackInjectionRate).
		int(b.NoCMinReps).int(b.NoCMaxReps).float(b.NoCRelCI).float(b.NoCMeasureCycles)
	return &nocModel{k: string(k), topo: topo, traffic: traffic, injection: spec.StackInjectionRate}
}

func (m *nocModel) key() string { return m.k }

func (m *nocModel) run(s *rng.Stream, b Budget) {
	m.est = AdaptiveMean(b.NoCMinReps, b.NoCMaxReps, b.NoCRelCI, func(i int) float64 {
		return sim.Run(sim.Config{
			Topo:          m.topo,
			Traffic:       m.traffic,
			InjectionRate: m.injection,
			MeasureCycles: b.NoCMeasureCycles,
			Seed:          s.Split(uint64(i) + 1).Uint64(),
		}).MeanLatencyCycles
	})
}

func (m *nocModel) apply(rec *Record, b Budget) {
	rec.SimLatencyCycles = m.est.Mean()
	rec.SimLatencyCI95 = m.est.HalfWidth95()
	rec.SimReplications = m.est.N()
}
