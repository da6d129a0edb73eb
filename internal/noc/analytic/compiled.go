package analytic

import (
	"fmt"
	"math"
)

// Compiled is a Model whose all-pairs routing has been folded into
// per-unit channel loads and one hop-weighted traffic share. Evaluating a
// latency-versus-injection curve through a Compiled model costs
// O(channels) per point instead of O(modules^2 x hops), which is what
// makes wide design-space sweeps over large meshes practical; compiling
// walks every router pair's route once, into one reused buffer.
//
// A Compiled value is immutable after construction and safe for
// concurrent use by multiple goroutines.
type Compiled struct {
	m            Model
	loadsPerUnit []float64
	capacity     []float64 // per-channel relative capacity
	// hopShare is Σ share·(routers crossed) over every module pair: a
	// co-located pair crosses one router, a routed pair hops+1.
	hopShare   float64
	totalShare float64
}

// Compile freezes the model's routing into a reusable evaluator.
func (m Model) Compile() *Compiled {
	topo := m.Topo
	n := topo.NumModules()
	c := &Compiled{
		m:            m,
		loadsPerUnit: make([]float64, topo.NumChannels()),
		capacity:     make([]float64, topo.NumChannels()),
	}
	for i := range c.capacity {
		c.capacity[i] = m.channelCapacity(i)
	}

	// Aggregate module pairs by router pair; routes depend only on the
	// router endpoints. Accumulation walks router pairs in a fixed order
	// so the floating-point sums are bit-identical run to run.
	routers := topo.NumRouters()
	byPair := make([]float64, routers*routers)
	for s := 0; s < n; s++ {
		rs := topo.RouterOf(s)
		for d := 0; d < n; d++ {
			share := m.Traffic.Share(s, d, n)
			if share == 0 {
				continue
			}
			c.totalShare += share
			rd := topo.RouterOf(d)
			if rs == rd {
				c.hopShare += share
				continue
			}
			byPair[rs*routers+rd] += share
		}
	}
	var chans []int
	for key, share := range byPair {
		if share == 0 {
			continue
		}
		chans = topo.AppendRouteChannels(chans[:0], key/routers, key%routers)
		for _, ch := range chans {
			c.loadsPerUnit[ch] += share
		}
		c.hopShare += share * float64(len(chans)+1)
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
	for i, l := range c.loadsPerUnit {
		if scaled := l / c.capacity[i]; scaled > maxLoad {
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
	for i, l := range c.loadsPerUnit {
		rho := l * injectionRate / (eff * c.capacity[i])
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
