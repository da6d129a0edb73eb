// Package core composes the paper's four building blocks into its actual
// proposal: a multi-board electronic system whose backplane is replaced
// by direct wireless board-to-board links between 3D chip-stacks.
//
//   - Sec. II  (channel + link budget)  -> link planning and TX power
//   - Sec. III (1-bit oversampling)     -> energy-efficient PHY choice
//   - Sec. IV  (3D NiCS)                -> the network inside each stack
//   - Sec. V   (LDPC-CC window decoder) -> latency-constrained coding
//
// DesignSystem takes a system specification (boards, nodes, traffic,
// latency budget) and returns a complete, explainable design: per-link
// transmit powers, the receiver architecture, the code and window size,
// and the intra-stack NoC topology with its predicted latency.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/channel"
	"repro/internal/ldpc"
	"repro/internal/linkbudget"
	"repro/internal/noc"
	"repro/internal/noc/analytic"
	"repro/internal/units"
)

// SystemSpec describes the system to interconnect.
type SystemSpec struct {
	// Boards is the number of parallel boards in the box (the paper
	// pictures 4-5 boards per litre).
	Boards int
	// BoardSpacingM separates adjacent boards (0.1 m in Table I).
	BoardSpacingM float64
	// BoardEdgeM is the square board edge (0.1 m, "10cm x 10cm").
	BoardEdgeM float64
	// NodesPerBoard is the number of chip-stack nodes per board; nodes
	// are assumed spread over the board, so the worst diagonal link
	// spans the full board edge.
	NodesPerBoard int
	// LinkRateGbps is the target data rate per wireless link
	// (100 Gbit/s in the paper).
	LinkRateGbps float64
	// LatencyBudgetBits bounds the structural decoding latency of the
	// error-correction stage in information bits (Eq. 4).
	LatencyBudgetBits int
	// StackModules is the number of processing modules inside each 3D
	// chip-stack's NiCS.
	StackModules int
	// StackInjectionRate is the per-module NoC load in
	// flits/cycle/module used to evaluate topologies.
	StackInjectionRate float64
	// Butler selects the Butler-matrix beamforming realisation (cheaper
	// hardware, 5 dB worst-case direction mismatch) over full beam
	// steering.
	Butler bool
	// SNRMarginDB is added on top of the Shannon-derived SNR requirement
	// to cover coding gap and ageing (default 3 dB).
	SNRMarginDB float64

	// The optional sections below extend the paper's running example to
	// user-declared scenario families. They are pointers with omitempty
	// tags on purpose: a nil section marshals to exactly the bytes the
	// pre-section SystemSpec produced, so every content-addressed
	// PointKey minted before these fields existed stays valid.

	// Traffic selects the NoC traffic pattern offered to each stack's
	// network. Nil means the paper's uniform traffic.
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// Interference models co-channel interference from neighbouring
	// board-to-board links via the measured echo environment. Nil means
	// an interference-free link budget.
	Interference *InterferenceSpec `json:"interference,omitempty"`
	// Power imposes hard power ceilings on the wireless plan. Nil means
	// unconstrained.
	Power *PowerSpec `json:"power,omitempty"`
}

// TrafficSpec selects the traffic pattern evaluated inside each stack's
// NiCS, both by the analytic topology chooser and the cycle simulator.
type TrafficSpec struct {
	// Pattern names the noc traffic model: "uniform", "hotspot" or
	// "bit-complement". Empty means "uniform".
	Pattern string `json:"pattern"`
	// HotspotModule is the hot destination module for "hotspot".
	HotspotModule int `json:"hotspot_module"`
	// HotspotFraction in [0, 1] is the share of every module's traffic
	// addressed to the hot module.
	HotspotFraction float64 `json:"hotspot_fraction"`
}

// Traffic pattern names accepted by TrafficSpec.Pattern.
const (
	TrafficUniform       = "uniform"
	TrafficHotspot       = "hotspot"
	TrafficBitComplement = "bit-complement"
)

// NoCPattern returns the noc.TrafficPattern the section describes.
// A nil receiver or empty pattern is the paper's uniform traffic.
func (t *TrafficSpec) NoCPattern() noc.TrafficPattern {
	if t == nil {
		return noc.Uniform{}
	}
	switch t.Pattern {
	case "", TrafficUniform:
		return noc.Uniform{}
	case TrafficHotspot:
		return noc.Hotspot{Module: t.HotspotModule, Fraction: t.HotspotFraction}
	case TrafficBitComplement:
		return noc.BitComplement{}
	}
	panic(fmt.Sprintf("core: unknown traffic pattern %q (Validate should have rejected it)", t.Pattern))
}

// validate checks the traffic section against the stack size.
func (t *TrafficSpec) validate(stackModules int) error {
	switch t.Pattern {
	case "", TrafficUniform, TrafficBitComplement:
	case TrafficHotspot:
		if t.HotspotFraction < 0 || t.HotspotFraction > 1 {
			return fmt.Errorf("core: hotspot fraction %g outside [0, 1]", t.HotspotFraction)
		}
		if t.HotspotModule < 0 || t.HotspotModule >= stackModules {
			return fmt.Errorf("core: hotspot module %d outside the %d-module stack", t.HotspotModule, stackModules)
		}
	default:
		return fmt.Errorf("core: unknown traffic pattern %q (want %s, %s or %s)",
			t.Pattern, TrafficUniform, TrafficHotspot, TrafficBitComplement)
	}
	return nil
}

// InterferenceSpec models co-channel interference from neighbouring
// wireless links reusing the band. Each interferer couples in through
// the worst multipath echo of the measured Sec. II channel (the copper
// board reverberation when CopperBoards is set), attenuated by any
// extra rejection the receiver achieves (beam nulling, polarisation
// reuse). The link budget then plans transmit power against the
// resulting SINR instead of the thermal-noise-only SNR; a design whose
// required SINR cannot be reached at any power is interference-limited
// and infeasible.
type InterferenceSpec struct {
	// Neighbors is the number of equal-power co-channel interfering
	// links coupling into each receiver.
	Neighbors int `json:"neighbors"`
	// CopperBoards selects the worst-case echo environment of the
	// paper's copper-board measurements for the coupling path.
	CopperBoards bool `json:"copper_boards"`
	// RejectionDB is extra per-interferer rejection in dB on top of the
	// propagation discrimination (≥ 0).
	RejectionDB float64 `json:"rejection_db"`
}

// validate checks the interference section.
func (i *InterferenceSpec) validate() error {
	switch {
	case i.Neighbors < 0:
		return fmt.Errorf("core: interference neighbors %d must be >= 0", i.Neighbors)
	case i.RejectionDB < 0:
		return fmt.Errorf("core: interference rejection %g dB must be >= 0", i.RejectionDB)
	}
	return nil
}

// PowerSpec imposes hard power ceilings on the wireless plan — the
// thermally constrained stack family, where a 3D chip-stack cannot
// dissipate arbitrary RF power.
type PowerSpec struct {
	// MaxTxPowerDBm caps the per-link transmit power. A plan whose
	// worst link needs more is infeasible.
	MaxTxPowerDBm float64 `json:"max_tx_power_dbm"`
}

// Validate checks the specification for contradictions.
func (s SystemSpec) Validate() error {
	switch {
	case s.Boards < 1:
		return fmt.Errorf("core: need at least one board, got %d", s.Boards)
	case s.BoardSpacingM <= 0:
		return fmt.Errorf("core: board spacing %g m must be positive", s.BoardSpacingM)
	case s.BoardEdgeM <= 0:
		return fmt.Errorf("core: board edge %g m must be positive", s.BoardEdgeM)
	case s.NodesPerBoard < 1:
		return fmt.Errorf("core: need at least one node per board, got %d", s.NodesPerBoard)
	case s.LinkRateGbps <= 0:
		return fmt.Errorf("core: link rate %g Gbit/s must be positive", s.LinkRateGbps)
	case s.LatencyBudgetBits < 75:
		return fmt.Errorf("core: latency budget %d bits below the smallest window decoder (75)", s.LatencyBudgetBits)
	case s.StackModules < 2:
		return fmt.Errorf("core: a NiCS needs at least 2 modules, got %d", s.StackModules)
	case s.StackInjectionRate <= 0:
		return fmt.Errorf("core: stack injection rate must be positive")
	}
	if s.Traffic != nil {
		if err := s.Traffic.validate(s.StackModules); err != nil {
			return err
		}
	}
	if s.Interference != nil {
		if err := s.Interference.validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultSpec returns the paper's running example: 4 boards of
// 10cm x 10cm at 100 mm spacing, 100 Gbit/s links, 64-module stacks.
func DefaultSpec() SystemSpec {
	return SystemSpec{
		Boards:             4,
		BoardSpacingM:      0.1,
		BoardEdgeM:         0.1,
		NodesPerBoard:      9,
		LinkRateGbps:       100,
		LatencyBudgetBits:  200,
		StackModules:       64,
		StackInjectionRate: 0.1,
		Butler:             true,
		SNRMarginDB:        3,
	}
}

// LinkPlan is the wireless plan for one link class.
type LinkPlan struct {
	// Name labels the class ("ahead", "diagonal").
	Name string
	// DistanceM is the link length.
	DistanceM float64
	// TargetSNRdB at the receiver.
	TargetSNRdB float64
	// TxPowerDBm required to close the link.
	TxPowerDBm float64
	// Butler reports whether the Butler penalty applies.
	Butler bool
}

// CodePlan is the chosen error-correction configuration.
type CodePlan struct {
	// Lifting N and Window W of the LDPC-CC.
	Lifting, Window int
	// LatencyBits is TWD of Eq. 4.
	LatencyBits float64
	// Rate is the asymptotic code rate.
	Rate float64
	// BlockCodeLatencyBits is what an LDPC-BC would need for comparable
	// strength (the Fig. 10 trade), taken as 2x the window latency per
	// the paper's 3 dB operating example.
	BlockCodeLatencyBits float64
}

// StackPlan is the chosen intra-stack network.
type StackPlan struct {
	// Topology is the winning NiCS mesh.
	Topology *noc.Mesh
	// LatencyCycles is the analytic mean packet latency at the specified
	// injection rate.
	LatencyCycles float64
	// SaturationRate is the topology's throughput limit.
	SaturationRate float64
	// Alternatives lists the evaluated contenders for the report.
	Alternatives []StackAlternative
}

// StackAlternative records one evaluated topology.
type StackAlternative struct {
	Name           string
	LatencyCycles  float64
	SaturationRate float64
	Feasible       bool
}

// Design is the complete system design.
type Design struct {
	Spec   SystemSpec
	Budget linkbudget.Budget
	// SpectralEfficiency is the required bit/s/Hz per polarisation.
	SpectralEfficiency float64
	Links              []LinkPlan
	Code               CodePlan
	Stack              StackPlan
}

// DesignSystem runs the full design pipeline.
func DesignSystem(spec SystemSpec) (*Design, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.SNRMarginDB == 0 {
		spec.SNRMarginDB = 3
	}
	d := &Design{Spec: spec, Budget: linkbudget.TableI()}
	d.Budget.ShortestLinkM = spec.BoardSpacingM
	longest := math.Sqrt(spec.BoardSpacingM*spec.BoardSpacingM + 2*spec.BoardEdgeM*spec.BoardEdgeM)
	d.Budget.LongestLinkM = longest

	// Required SNR from the rate target: dual polarisation over the
	// Table I bandwidth, Shannon plus margin.
	perPol := spec.LinkRateGbps * 1e9 / 2 / d.Budget.BandwidthHz
	d.SpectralEfficiency = perPol
	targetSNR := units.DB(math.Pow(2, perPol)-1) + spec.SNRMarginDB

	d.Links = []LinkPlan{
		{
			Name:        "ahead",
			DistanceM:   spec.BoardSpacingM,
			TargetSNRdB: targetSNR,
			TxPowerDBm:  d.Budget.RequiredTxPowerDBm(spec.BoardSpacingM, targetSNR, false),
		},
		{
			Name:        "diagonal",
			DistanceM:   longest,
			TargetSNRdB: targetSNR,
			Butler:      spec.Butler,
			TxPowerDBm:  d.Budget.RequiredTxPowerDBm(longest, targetSNR, spec.Butler),
		},
	}
	if spec.Interference != nil {
		for i := range d.Links {
			penalty, err := interferencePenaltyDB(spec, d.Budget.FreqHz, d.Links[i], targetSNR)
			if err != nil {
				return nil, err
			}
			d.Links[i].TxPowerDBm += penalty
		}
	}
	if spec.Power != nil {
		for _, l := range d.Links {
			if l.TxPowerDBm > spec.Power.MaxTxPowerDBm {
				return nil, fmt.Errorf("core: %s link needs %.1f dBm, exceeding the %.1f dBm power cap",
					l.Name, l.TxPowerDBm, spec.Power.MaxTxPowerDBm)
			}
		}
	}

	var err error
	d.Code, err = chooseCode(spec.LatencyBudgetBits)
	if err != nil {
		return nil, err
	}
	d.Stack, err = chooseStack(spec.StackModules, spec.StackInjectionRate, spec.Traffic.NoCPattern())
	if err != nil {
		return nil, err
	}
	return d, nil
}

// interferencePenaltyDB converts the SNR-only power plan into an
// SINR-aware one. Each of the Neighbors interfering links couples into
// the receiver through the scenario's strongest echo path (relative
// level WorstEchoRelativeDB, further attenuated by RejectionDB), and
// interferers run at the same power class as the victim, so the
// carrier-to-interference ratio is power-independent: raising transmit
// power raises interference proportionally. Requiring
// S/(N + iRel*S) >= s therefore costs an extra -10*log10(1 - s*iRel)
// dB over the noise-only plan, and once s*iRel >= 1 no transmit power
// closes the link — the design is interference-limited.
func interferencePenaltyDB(spec SystemSpec, freqHz float64, link LinkPlan, targetSNRdB float64) (float64, error) {
	inf := spec.Interference
	if inf.Neighbors == 0 {
		return 0, nil
	}
	var sc channel.Scenario
	if link.DistanceM > spec.BoardSpacingM {
		// Diagonal links: rotated boards with the paper's residual
		// misalignment model.
		sc = channel.DiagonalScenario(link.DistanceM, spec.BoardSpacingM, inf.CopperBoards)
	} else {
		sc = channel.Scenario{
			LinkDistM:    link.DistanceM,
			CopperBoards: inf.CopperBoards,
			TXGainDB:     channel.HornGainDB,
			RXGainDB:     channel.HornGainDB,
		}
	}
	echoDB := sc.WorstEchoRelativeDB(freqHz)
	perInterferer := math.Pow(10, (echoDB-inf.RejectionDB)/10)
	iRel := float64(inf.Neighbors) * perInterferer
	s := math.Pow(10, targetSNRdB/10)
	if s*iRel >= 1 {
		return 0, fmt.Errorf("core: %s link is interference-limited: %d neighbours at %.1f dB coupling leave SINR %.1f dB unreachable",
			link.Name, inf.Neighbors, echoDB-inf.RejectionDB, targetSNRdB)
	}
	return -10 * math.Log10(1-s*iRel), nil
}

// chooseCode picks the (N, W) pair of the paper's code family whose
// structural latency fits the budget, following the shape of Fig. 10:
// performance improves with the spent latency W*N, the minimum window
// W = mcc+1 is a last resort (its curves sit far right of the others),
// and at equal spent latency a larger lifting factor (longer constraint
// length) wins.
func chooseCode(budgetBits int) (CodePlan, error) {
	spreading := ldpc.PaperSpreading()
	rate := 0.5
	nv := 2
	minW := spreading.Memory() + 1

	type cand struct {
		n, w int
		lat  float64
	}
	better := func(a, b cand) bool { // is a better than b
		aHealthy, bHealthy := a.w > minW, b.w > minW
		if aHealthy != bHealthy {
			return aHealthy
		}
		if a.lat != b.lat {
			return a.lat > b.lat // spend the budget
		}
		return a.n > b.n // longer constraint length
	}

	var best cand
	found := false
	for _, n := range []int{25, 40, 60} {
		for w := minW; w <= 8; w++ {
			lat := ldpc.WindowLatencyBits(w, n, nv, rate)
			if lat > float64(budgetBits) {
				break
			}
			c := cand{n: n, w: w, lat: lat}
			if !found || better(c, best) {
				best = c
				found = true
			}
		}
	}
	if !found {
		return CodePlan{}, fmt.Errorf("core: no LDPC-CC configuration fits %d bits (minimum is W=3, N=25: 75 bits)", budgetBits)
	}
	return CodePlan{
		Lifting: best.n, Window: best.w,
		LatencyBits:          best.lat,
		Rate:                 rate,
		BlockCodeLatencyBits: 2 * best.lat,
	}, nil
}

// stackCandidate is one compiled topology contender: the mesh, its
// frozen evaluator and its (injection-independent) saturation rate.
type stackCandidate struct {
	topo  *noc.Mesh
	model *analytic.Compiled
	sat   float64
}

// stackCacheKey identifies one compiled candidate set: the traffic
// pattern participates because the analytic model's channel loads — and
// therefore latency and saturation — are pattern-dependent. Pattern
// String() values are injective over the supported patterns (hotspot
// prints its module and fraction), so equal keys mean equal models.
type stackCacheKey struct {
	modules int
	traffic string
}

// stackCache memoises compiled candidate topologies per (module count,
// traffic pattern). Compiling a mesh costs O(modules^2 + routers^2)
// (one share per module pair, one route tree per source router), while
// a design point only needs one O(channels) latency evaluation per
// candidate, and sweep grids revisit the same handful of module counts
// for every point. Mesh and Compiled are immutable and safe to share
// across sweep workers, and candidate construction is deterministic, so
// cached and freshly built candidates are indistinguishable; a bounded
// FIFO keeps an optimizer walking a wide StackModules range from
// holding every mesh it ever compiled.
var stackCache = struct {
	sync.Mutex
	entries map[stackCacheKey][]stackCandidate
	order   []stackCacheKey
}{entries: map[stackCacheKey][]stackCandidate{}}

// stackCacheCap bounds the cached module counts; scenario grids use a
// handful. An entry holds its meshes' channel and direction tables and
// per-channel loads, all O(channels): a few hundred KB at 512 modules.
const stackCacheCap = 32

// compiledCandidates returns the compiled topology contenders for the
// module count under the traffic pattern, building and caching them on
// first request.
func compiledCandidates(modules int, traffic noc.TrafficPattern) []stackCandidate {
	key := stackCacheKey{modules: modules, traffic: traffic.String()}
	stackCache.Lock()
	if c, ok := stackCache.entries[key]; ok {
		stackCache.Unlock()
		return c
	}
	stackCache.Unlock()

	// Build outside the lock: compilation is the expensive part, and two
	// workers racing on the same module count produce identical
	// candidates, so the second insert is a harmless overwrite.
	var cands []stackCandidate
	for _, topo := range CandidateTopologies(modules) {
		model := analytic.Model{Topo: topo, Traffic: traffic}.Compile()
		cands = append(cands, stackCandidate{topo: topo, model: model, sat: model.SaturationRate()})
	}

	stackCache.Lock()
	if _, dup := stackCache.entries[key]; !dup {
		stackCache.entries[key] = cands
		stackCache.order = append(stackCache.order, key)
		if len(stackCache.order) > stackCacheCap {
			evict := stackCache.order[0]
			stackCache.order = stackCache.order[1:]
			delete(stackCache.entries, evict)
		}
	}
	stackCache.Unlock()
	return cands
}

// chooseStack evaluates the Fig. 7 topology types for the module count
// and picks the lowest-latency feasible one at the given load under the
// given traffic pattern.
func chooseStack(modules int, injection float64, traffic noc.TrafficPattern) (StackPlan, error) {
	var alts []StackAlternative
	var bestMesh *noc.Mesh
	bestLat := math.Inf(1)
	var bestSat float64

	for _, cand := range compiledCandidates(modules, traffic) {
		lat, ok := cand.model.AvgLatency(injection)
		alts = append(alts, StackAlternative{
			Name:           cand.topo.Name(),
			LatencyCycles:  lat,
			SaturationRate: cand.sat,
			Feasible:       ok,
		})
		if ok && lat < bestLat {
			bestMesh, bestLat, bestSat = cand.topo, lat, cand.sat
		}
	}
	if bestMesh == nil {
		return StackPlan{Alternatives: alts},
			fmt.Errorf("core: no topology sustains %.2f flits/cycle/module for %d modules", injection, modules)
	}
	return StackPlan{
		Topology:       bestMesh,
		LatencyCycles:  bestLat,
		SaturationRate: bestSat,
		Alternatives:   alts,
	}, nil
}

// CandidateTopologies proposes the meshes of the Fig. 7 types a design
// point's stack choice compiles and compares, with module counts
// matching the request (rounding the grid up where needed).
func CandidateTopologies(modules int) []*noc.Mesh {
	var out []*noc.Mesh
	// 2D mesh, near-square.
	w := int(math.Ceil(math.Sqrt(float64(modules))))
	h := (modules + w - 1) / w
	out = append(out, noc.NewMesh2D(w, h))
	// Star-mesh with concentration 4.
	if modules >= 4 {
		sw := int(math.Ceil(math.Sqrt(float64(modules) / 4)))
		sh := (modules/4 + sw - 1) / sw
		if sw >= 1 && sh >= 1 {
			out = append(out, noc.NewStarMesh(sw, sh, 4))
		}
	}
	// 3D mesh, near-cubic.
	c := int(math.Ceil(math.Cbrt(float64(modules))))
	cz := (modules + c*c - 1) / (c * c)
	if cz >= 2 {
		out = append(out, noc.NewMesh3D(c, c, cz))
		// Ciliated 3D mesh with concentration 2.
		if modules >= 8 && modules%2 == 0 {
			h := int(math.Ceil(math.Cbrt(float64(modules) / 2)))
			hz := (modules/2 + h*h - 1) / (h * h)
			if hz >= 2 {
				out = append(out, noc.NewCiliated3D(h, h, hz, 2))
			}
		}
	}
	return out
}

// TotalNodes returns the number of wireless nodes in the system.
func (d *Design) TotalNodes() int { return d.Spec.Boards * d.Spec.NodesPerBoard }

// WorstTxPowerDBm returns the largest required transmit power.
func (d *Design) WorstTxPowerDBm() float64 {
	worst := math.Inf(-1)
	for _, l := range d.Links {
		if l.TxPowerDBm > worst {
			worst = l.TxPowerDBm
		}
	}
	return worst
}

// Report renders a human-readable design summary.
func (d *Design) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wireless backplane design (%d boards x %d nodes, %g Gbit/s links)\n",
		d.Spec.Boards, d.Spec.NodesPerBoard, d.Spec.LinkRateGbps)
	fmt.Fprintf(&sb, "  carrier %s, bandwidth %s, dual polarisation, %.2f bit/s/Hz/pol\n",
		units.FormatHz(d.Budget.FreqHz), units.FormatHz(d.Budget.BandwidthHz), d.SpectralEfficiency)
	for _, l := range d.Links {
		flag := ""
		if l.Butler {
			flag = " (butler worst case)"
		}
		fmt.Fprintf(&sb, "  link %-9s %.0f mm: target SNR %5.1f dB -> PTX %6.1f dBm%s\n",
			l.Name, l.DistanceM*1e3, l.TargetSNRdB, l.TxPowerDBm, flag)
	}
	fmt.Fprintf(&sb, "  code: (4,8) LDPC-CC N=%d W=%d, latency %.0f info bits (block code: %.0f)\n",
		d.Code.Lifting, d.Code.Window, d.Code.LatencyBits, d.Code.BlockCodeLatencyBits)
	fmt.Fprintf(&sb, "  stack NoC: %s, mean latency %.1f cycles, saturation %.2f flits/cycle/module\n",
		d.Stack.Topology.Name(), d.Stack.LatencyCycles, d.Stack.SaturationRate)
	for _, a := range d.Stack.Alternatives {
		status := "ok"
		if !a.Feasible {
			status = "saturated"
		}
		fmt.Fprintf(&sb, "    candidate %-30s latency %6.1f  sat %.2f  [%s]\n",
			a.Name, a.LatencyCycles, a.SaturationRate, status)
	}
	return sb.String()
}

// PathlossModelForSpec returns the measured-channel pathloss model used
// by the design, for callers that want raw channel numbers.
func PathlossModelForSpec(spec SystemSpec) channel.Pathloss {
	return channel.NewFreespacePathloss(232.5e9, 0.1)
}
