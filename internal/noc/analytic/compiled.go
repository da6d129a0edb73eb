package analytic

import (
	"fmt"
	"math"
	"slices"
)

// Compiled is a Model whose all-pairs routing has been folded into
// per-unit channel loads and one hop-weighted traffic share. Evaluating a
// latency-versus-injection curve through a Compiled model costs
// O(channels) per point instead of O(modules^2 x hops), which is what
// makes wide design-space sweeps over large meshes practical; compiling
// costs one share row per module, O(modules^2) in all, plus, per source
// router, the union of its routes (a route tree), so O(router pairs)
// rather than O(router pairs x hops).
//
// A Compiled value is immutable after construction and safe for
// concurrent use by multiple goroutines.
type Compiled struct {
	m            Model
	loadsPerUnit []float64
	// hopShare is Σ share·(routers crossed) over every module pair: a
	// co-located pair crosses one router, a routed pair hops+1.
	hopShare   float64
	totalShare float64
}

// Compile freezes the model's routing into a reusable evaluator.
//
// Dimension-order routes have the prefix property (see noc.Mesh.LastHop),
// so the routes from one source router form a tree rooted at it, and a
// channel's load from that source is the total traffic of the subtree
// behind it. Per source router, Compile sums its modules' share rows
// (TrafficPattern.Row) into a per-destination-router row, grows the
// tree by walking each destination up through LastHop until it meets a
// router already on the tree, and then pushes flow back towards the
// root chain by chain. A source costs the union of its routes, not the
// sum of their lengths. Compile panics on a negative or NaN share, so
// every addition is nonnegative and a channel no traffic crosses stays
// exactly 0.
func (m Model) Compile() *Compiled {
	topo := m.Topo
	n := topo.NumModules()
	c := &Compiled{
		m:            m,
		loadsPerUnit: make([]float64, topo.NumChannels()),
	}

	// Scratch, carved from two allocations. For the current source:
	// row[r] is the traffic share destined to router r, flow[r] the
	// share routed through r (its subtree's total), stamp[r] the last
	// source whose tree r joined, last[r] and prev[r] the final hop of
	// r's route and the router it leaves. shares holds one source
	// module's share row. nodes lists the routers on the tree, every
	// router after its parent. dests lists the routers with a nonzero
	// row entry, so sparse traffic does not scan every router per
	// source.
	routers := topo.NumRouters()
	floats := make([]float64, 2*routers+n)
	row, flow, shares := floats[:routers], floats[routers:2*routers], floats[2*routers:]
	ints := make([]int32, 5*routers)
	stamp, last, prev := ints[:routers], ints[routers:2*routers], ints[2*routers:3*routers]
	nodes, dests := ints[3*routers:3*routers:4*routers], ints[4*routers:4*routers:5*routers]
	for r := range stamp {
		stamp[r] = -1
	}
	conc := topo.Concentration()
	for rs := 0; rs < routers; rs++ {
		dests, nodes = dests[:0], nodes[:0]
		// Module pairs sum in a fixed order (source-major, destination
		// ascending), so the floating-point sums are bit-identical run
		// to run.
		for s := rs * conc; s < (rs+1)*conc; s++ {
			m.Traffic.Row(s, shares)
			for rd := 0; rd < routers; rd++ {
				for _, share := range shares[rd*conc : (rd+1)*conc] {
					if !(share > 0) {
						if share == 0 {
							continue
						}
						// A negative share could cancel a row entry
						// back to 0 and list its router twice.
						panic(fmt.Sprintf("analytic: %s share %g from module %d is not a fraction", m.Traffic, share, s))
					}
					c.totalShare += share
					if rd == rs {
						continue // co-located traffic crosses no channel
					}
					if row[rd] == 0 {
						dests = append(dests, int32(rd))
					}
					row[rd] += share
				}
			}
		}
		stamp[rs] = int32(rs)
		for _, d := range dests {
			rd := int(d)
			share := row[rd]
			row[rd] = 0
			// The walk adds a chain of new routers, deepest first,
			// ending on the root or on an earlier chain; reversed, it
			// keeps nodes parent-first.
			chain := len(nodes)
			for r := rd; stamp[r] != int32(rs); {
				ch, p := topo.LastHop(rs, r)
				stamp[r], last[r], prev[r], flow[r] = int32(rs), int32(ch), int32(p), 0
				nodes = append(nodes, int32(r))
				r = p
			}
			slices.Reverse(nodes[chain:])
			flow[rd] += share
		}
		// Newest chain first, deepest router first: every router is
		// visited after its whole subtree.
		for i := len(nodes) - 1; i >= 0; i-- {
			r := nodes[i]
			c.loadsPerUnit[last[r]] += flow[r]
			flow[prev[r]] += flow[r]
		}
	}
	// A routed pair crosses hops+1 routers and a co-located pair one,
	// so Σ share·(routers crossed) = Σ share + Σ share·hops, and the
	// latter is the total channel load.
	c.hopShare = c.totalShare
	for _, l := range c.loadsPerUnit {
		c.hopShare += l
	}
	return c
}

// Model returns the configuration the evaluator was compiled from.
func (c *Compiled) Model() Model { return c.m }

// WithService returns an evaluator that shares this one's compiled
// channel loads (which do not depend on the service model) but applies
// a different queueing formula.
func (c *Compiled) WithService(s ServiceModel) *Compiled {
	cc := *c
	cc.m.Service = s
	return &cc
}

// ChannelLoadsPerUnit returns the cached per-unit channel loads. The
// slice is shared; callers must not modify it.
func (c *Compiled) ChannelLoadsPerUnit() []float64 { return c.loadsPerUnit }

// SaturationRate returns the injection rate at which the most loaded
// channel reaches unit utilisation.
func (c *Compiled) SaturationRate() float64 {
	maxLoad := 0.0
	chans, capacity := c.m.Topo.Channels(), c.m.capacities()
	for i, l := range c.loadsPerUnit {
		if scaled := l / capacity[b2i(chans[i].Vertical)]; scaled > maxLoad {
			maxLoad = scaled
		}
	}
	if maxLoad == 0 {
		return math.Inf(1)
	}
	return c.m.efficiency() / maxLoad
}

// AvgLatency returns the mean packet latency in clock cycles at the
// given injection rate; the second result is false at saturation.
//
// A routed packet pays the router delay per router crossed plus the
// waiting time of every channel on its route, so summing over module
// pairs gives hopShare·rd plus each channel's wait weighted by the
// traffic share routed through it — its per-unit load.
func (c *Compiled) AvgLatency(injectionRate float64) (float64, bool) {
	if injectionRate < 0 {
		panic(fmt.Sprintf("analytic: negative injection rate %g", injectionRate))
	}
	eff := c.m.efficiency()
	sum := c.hopShare * c.m.routerDelay()
	chans, capacity := c.m.Topo.Channels(), c.m.capacities()
	for i, l := range c.loadsPerUnit {
		rho := l * injectionRate / (eff * capacity[b2i(chans[i].Vertical)])
		if rho >= 1 {
			return math.Inf(1), false
		}
		sum += l * c.m.waiting(rho)
	}
	if c.totalShare == 0 {
		return 0, true
	}
	return sum / c.totalShare, true
}

// ZeroLoadLatency returns the latency floor (no queueing).
func (c *Compiled) ZeroLoadLatency() float64 {
	lat, _ := c.AvgLatency(0)
	return lat
}

// LatencyCurve samples AvgLatency over the given injection rates.
func (c *Compiled) LatencyCurve(rates []float64) []CurvePoint {
	out := make([]CurvePoint, len(rates))
	for i, r := range rates {
		lat, ok := c.AvgLatency(r)
		out[i] = CurvePoint{InjectionRate: r, LatencyCycles: lat, Saturated: !ok}
	}
	return out
}

// capacities returns the relative capacity of an in-plane and of a
// vertical channel, indexed by b2i(Channel.Vertical).
func (m Model) capacities() [2]float64 { return [2]float64{1, m.verticalCapacity()} }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
