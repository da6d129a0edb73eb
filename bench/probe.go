package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/noc/sim"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// probeReport is the model probe's output: per-layer metrics of the
// evaluation stages, and the Monte-Carlo spend of every replayed point
// for comparison with the fleet's records.
type probeReport struct {
	Metrics map[string]metric `json:"metrics"`
	Points  []probePoint      `json:"points"`
}

// probePoint is one replayed point's Monte-Carlo spend.
type probePoint struct {
	Job             int `json:"job"`
	Index           int `json:"index"`
	BERCodewords    int `json:"ber_codewords"`
	SimReplications int `json:"sim_replications"`
}

// probeUnits are the metrics the probe reports, with their units.
var probeUnits = map[string]string{
	"core.design_ms.p50": "ms", "core.design_s.total": "s",
	"ldpc.ber_s.total": "s", "ldpc.codewords.total": "count",
	"nocsim.s.total": "s", "nocsim.replications.total": "count",
	"spec.compile_us.p50": "us", "sweep.pointkey_us.p50": "us",
	"probe.evaluate_ratio": "ratio",
}

// evaluateBand is how far the probe's stage sum may stray from timing
// sweep.Evaluate itself on the same points before the probe no longer
// describes Evaluate and must be updated with it.
const evaluateBand = 0.1

// prober accumulates stage timings across the replayed jobs.
type prober struct {
	design, compile, pointKey samples
	ber, nocsim               float64 // seconds
	codewords, reps           int
	stageSum, evalSum         float64 // seconds, fastest rounds
	points                    []probePoint
}

// probe replays the first jobs of the workload's list, in job order, on
// the calling goroutine: every point through core.DesignSystem, then
// the budget's ldpc.SimulateBER and noc/sim stages with the parameters
// and rng.Split streams sweep.Evaluate uses, then through
// sweep.Evaluate itself. It stops starting jobs once budget is spent.
// The probe fails when Evaluate's records disagree with its own
// Monte-Carlo spend, or when its stage times no longer add up to
// Evaluate's.
func probe(w *workload, seed uint64, jobs int, budget time.Duration) (*probeReport, error) {
	if jobs < 1 {
		return nil, fmt.Errorf("no jobs to replay")
	}
	p := &prober{}
	start := time.Now()
	for i := 0; i < jobs && (i == 0 || time.Since(start) < budget); i++ {
		if err := p.job(i, w.job(seed, i)); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	r := ratio(p.stageSum, p.evalSum)
	rep := &probeReport{Points: p.points, Metrics: map[string]metric{}}
	for name, v := range map[string]float64{
		"core.design_ms.p50":        p.design.quantile(0.5),
		"core.design_s.total":       p.design.sum / 1e3,
		"ldpc.ber_s.total":          p.ber,
		"ldpc.codewords.total":      float64(p.codewords),
		"nocsim.s.total":            p.nocsim,
		"nocsim.replications.total": float64(p.reps),
		"spec.compile_us.p50":       p.compile.quantile(0.5),
		"sweep.pointkey_us.p50":     p.pointKey.quantile(0.5),
		"probe.evaluate_ratio":      r,
	} {
		rep.Metrics[name] = metric{v, probeUnits[name]}
	}
	if !(r >= 1-evaluateBand && r <= 1+evaluateBand) {
		return rep, fmt.Errorf("stage sum / sweep.Evaluate = %.3f, outside [%.1f, %.1f]: the probe no longer mirrors Evaluate",
			r, 1-evaluateBand, 1+evaluateBand)
	}
	return rep, nil
}

// job replays one job's points.
func (p *prober) job(i int, js jobSpec) error {
	req, err := js.request()
	if err != nil {
		return err
	}
	b, err := sweep.ParseBudget(req.Budget)
	if err != nil {
		return err
	}
	replay := func(scenario string, pts []sweep.Point) ([]sweep.Record, error) {
		keyer := sweep.NewKeyer(scenario, b, req.Seed)
		for _, pt := range pts {
			t := time.Now()
			keyer.Key(pt)
			p.pointKey.add(float64(time.Since(t)) / float64(time.Microsecond))
		}
		return p.replay(i, scenario, pts, req.Seed, b)
	}
	switch {
	case len(req.Spec) > 0:
		t := time.Now()
		sp, err := spec.Parse(req.Spec)
		if err != nil {
			return err
		}
		c, err := sp.Compile()
		if err != nil {
			return err
		}
		p.compile.add(float64(time.Since(t)) / float64(time.Microsecond))
		_, err = replay(c.Scenario.Name, c.Points)
		return err
	case req.Kind == "optimize":
		space, err := search.Get(req.Space)
		if err != nil {
			return err
		}
		// The optimizer breeds each generation from the last one's
		// records, so the probe reproduces the fleet's points by running
		// the same search with its own evaluator.
		_, err = search.Optimize(context.Background(), search.Options{
			Space: space, Seed: req.Seed, Budget: b,
			Generations: req.Generations, Population: req.Population,
			Evaluate: func(_ context.Context, _ int, pts []sweep.Point) ([]sweep.Record, int, error) {
				recs, err := replay(space.ScenarioName(), pts)
				return recs, 0, err
			},
		})
		return err
	default:
		sc, err := sweep.Get(req.Scenario)
		if err != nil {
			return err
		}
		_, err = replay(sc.Name, sc.Points())
		return err
	}
}

// Rounds of the two warm passes: they repeat, interleaved, until each
// has run for probeMinTime (at most probeMaxRounds times), and the
// fastest round of each is kept. Analytic points take microseconds,
// where a single preemption would otherwise decide the ratio.
const (
	probeMinTime   = 20 * time.Millisecond
	probeMaxRounds = 50
)

// replay runs one batch of points in three passes. The first times
// core.DesignSystem as the fleet meets it, compiled-topology cache
// misses included. The second and third time the staged pipeline and
// sweep.Evaluate on the same, now warm, points, so their ratio compares
// like with like.
func (p *prober) replay(job int, scenario string, pts []sweep.Point, seed uint64, b sweep.Budget) ([]sweep.Record, error) {
	root := rng.New(seed)
	for _, pt := range pts {
		t := time.Now()
		core.DesignSystem(pt.Spec)
		p.design.add(ms(time.Since(t)))
	}
	spent := make([]probePoint, len(pts))
	recs := make([]sweep.Record, len(pts))
	stageBest, evalBest := math.Inf(1), math.Inf(1)
	var stageTotal, evalTotal time.Duration
	for round := 0; round == 0 || (round < probeMaxRounds && min(stageTotal, evalTotal) < probeMinTime); round++ {
		var st, ev time.Duration
		for k, pt := range pts {
			stages := func() {
				t := time.Now()
				sp := p.stages(pt, root.Split(uint64(pt.Index)+1), b, round == 0)
				st += time.Since(t)
				if round == 0 {
					sp.Job, sp.Index = job, pt.Index
					spent[k] = sp
				}
			}
			evaluate := func() {
				t := time.Now()
				recs[k] = sweep.Evaluate(scenario, pt, root.Split(uint64(pt.Index)+1), b)
				ev += time.Since(t)
			}
			// Alternate which goes first, so neither pays the other's
			// warm-up on every point.
			if k%2 == 0 {
				stages()
				evaluate()
			} else {
				evaluate()
				stages()
			}
		}
		stageTotal += st
		evalTotal += ev
		stageBest = math.Min(stageBest, st.Seconds())
		evalBest = math.Min(evalBest, ev.Seconds())
	}
	p.stageSum += stageBest
	p.evalSum += evalBest
	for k, rec := range recs {
		if rec.BERCodewords != spent[k].BERCodewords || rec.SimReplications != spent[k].SimReplications {
			return nil, fmt.Errorf("point %d: sweep.Evaluate spent (%d codewords, %d replications), the probe's stages (%d, %d)",
				rec.Index, rec.BERCodewords, rec.SimReplications, spent[k].BERCodewords, spent[k].SimReplications)
		}
		p.codewords += spent[k].BERCodewords
		p.reps += spent[k].SimReplications
	}
	p.points = append(p.points, spent...)
	return recs, nil
}

// stages runs one point through the pipeline sweep.Evaluate composes:
// the design and the record fields read off it, then the budget's BER
// and NoC-simulation stages with Evaluate's parameters and sub-streams.
// With book set it adds the Monte-Carlo stage times to the totals. It
// returns the point's Monte-Carlo spend.
func (p *prober) stages(pt sweep.Point, stream *rng.Stream, b sweep.Budget, book bool) probePoint {
	var spent probePoint
	des, err := core.DesignSystem(pt.Spec)
	if err != nil {
		return spent // Evaluate stops at a design error too
	}
	des.WorstTxPowerDBm()
	des.Stack.Topology.Name()
	if b.BERSim {
		t := time.Now()
		code := ldpc.LiftConvolutional(ldpc.PaperSpreading(), b.TermLength, des.Code.Lifting, 3)
		r := ldpc.SimulateBER(ldpc.BERParams{
			Code: code, Alg: ldpc.SumProduct, MaxIter: b.BERMaxIter,
			Window: des.Code.Window, Rate: des.Code.Rate,
			EbN0DB: b.BEREbN0DB, MaxCodewords: b.BERMaxCodewords, RelCI: b.BERRelCI,
			Seed: stream.Split(1).Uint64(), Workers: 1,
		})
		if book {
			p.ber += time.Since(t).Seconds()
		}
		spent.BERCodewords = r.Codewords
	}
	if b.NoCSim {
		simStream := stream.Split(2)
		t := time.Now()
		est := sweep.AdaptiveMean(b.NoCMinReps, b.NoCMaxReps, b.NoCRelCI, func(i int) float64 {
			return sim.Run(sim.Config{
				Topo: des.Stack.Topology, Traffic: pt.Spec.Traffic.NoCPattern(),
				InjectionRate: pt.Spec.StackInjectionRate, MeasureCycles: b.NoCMeasureCycles,
				Seed: simStream.Split(uint64(i) + 1).Uint64(),
			}).MeanLatencyCycles
		})
		if book {
			p.nocsim += time.Since(t).Seconds()
		}
		spent.SimReplications = est.N()
	}
	return spent
}
