// Package analytic implements the queueing-theory NoC performance model
// used for the paper's Fig. 8, after the flexible analytic model of
// Fischer, Fehske and Fettweis (ref. [14]): every router-to-router
// channel is an independent queue whose arrival rate follows from
// deterministic routing of the offered traffic, and per-packet latency
// is the sum of per-hop pipeline delays and per-channel waiting times.
//
// The model evaluates a full latency-versus-injection curve in
// microseconds of CPU time, which is what makes the design-space
// exploration of large NoCs practical compared to event simulation.
package analytic

import (
	"fmt"
	"math"

	"repro/internal/noc"
)

// ServiceModel selects the waiting-time formula of the per-channel queue.
type ServiceModel int

const (
	// MM1 models exponential service: W = rho / (1 - rho) cycles.
	MM1 ServiceModel = iota
	// MD1 models deterministic unit service: W = rho / (2 (1 - rho)).
	MD1
)

// String implements fmt.Stringer.
func (s ServiceModel) String() string {
	switch s {
	case MM1:
		return "M/M/1"
	case MD1:
		return "M/D/1"
	default:
		return "unknown"
	}
}

// Model is a configured analytic evaluation.
type Model struct {
	// Topo is the topology under test.
	Topo *noc.Mesh
	// Traffic is the offered pattern (the paper uses Uniform).
	Traffic noc.TrafficPattern
	// RouterDelayCycles is the pipeline cost per traversed router,
	// covering switch and link traversal (2 cycles reproduces the
	// paper's low-traffic latencies). Zero means 2.
	RouterDelayCycles float64
	// Service selects the queueing formula (default MM1).
	Service ServiceModel
	// ChannelEfficiency derates the usable channel capacity for switch
	// arbitration and flow-control overhead. The pure-wire model yields
	// saturation at 0.49/0.25/0.98 flits/cycle/module for the paper's
	// three 64-module topologies; an efficiency of 0.8 reproduces the
	// published 0.41/0.19/0.75 within a few percent. Zero means 0.8.
	ChannelEfficiency float64
	// VerticalCapacity scales the bandwidth of vertical (inter-layer)
	// channels relative to in-plane wires — the paper's outlook expects
	// TSV / inductive / capacitive / wireless vertical links to be
	// faster. Zero means 1 (homogeneous).
	VerticalCapacity float64
}

func (m Model) verticalCapacity() float64 {
	if m.VerticalCapacity == 0 {
		return 1
	}
	return m.VerticalCapacity
}

// channelCapacity returns the relative capacity of channel id c.
func (m Model) channelCapacity(c int) float64 {
	if m.Topo.Channels()[c].Vertical {
		return m.verticalCapacity()
	}
	return 1
}

func (m Model) efficiency() float64 {
	if m.ChannelEfficiency == 0 {
		return 0.8
	}
	return m.ChannelEfficiency
}

func (m Model) routerDelay() float64 {
	if m.RouterDelayCycles == 0 {
		return 2
	}
	return m.RouterDelayCycles
}

// ChannelLoadsPerUnit returns, for every channel, the flits/cycle carried
// per unit injection rate (1 flit/cycle/module). Loads scale linearly
// with the injection rate because routing is deterministic.
func (m Model) ChannelLoadsPerUnit() []float64 {
	topo := m.Topo
	n := topo.NumModules()
	loads := make([]float64, topo.NumChannels())
	for s := 0; s < n; s++ {
		rs := topo.RouterOf(s)
		for d := 0; d < n; d++ {
			share := m.Traffic.Share(s, d, n)
			if share == 0 {
				continue
			}
			rd := topo.RouterOf(d)
			if rs == rd {
				continue
			}
			for _, c := range topo.RouteChannels(rs, rd) {
				loads[c] += share
			}
		}
	}
	return loads
}

// SaturationRate returns the injection rate (flits/cycle/module) at which
// the most loaded channel reaches unit utilisation — the network
// saturation point that bounds throughput in Fig. 8.
func (m Model) SaturationRate() float64 {
	maxLoad := 0.0
	for c, l := range m.ChannelLoadsPerUnit() {
		if scaled := l / m.channelCapacity(c); scaled > maxLoad {
			maxLoad = scaled
		}
	}
	if maxLoad == 0 {
		return math.Inf(1)
	}
	return m.efficiency() / maxLoad
}

// waiting returns the queueing delay in cycles for utilisation rho.
func (m Model) waiting(rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	switch m.Service {
	case MD1:
		return rho / (2 * (1 - rho))
	default:
		return rho / (1 - rho)
	}
}

// AvgLatency returns the mean packet latency in clock cycles at the given
// injection rate (flits/cycle/module), averaged over the traffic pattern.
// The second result is false when the network is saturated (some channel
// utilisation >= 1), in which case the latency is +Inf.
func (m Model) AvgLatency(injectionRate float64) (float64, bool) {
	if injectionRate < 0 {
		panic(fmt.Sprintf("analytic: negative injection rate %g", injectionRate))
	}
	topo := m.Topo
	n := topo.NumModules()
	loadsPerUnit := m.ChannelLoadsPerUnit()

	// Per-channel waiting times at this operating point.
	wait := make([]float64, len(loadsPerUnit))
	eff := m.efficiency()
	for i, l := range loadsPerUnit {
		rho := l * injectionRate / (eff * m.channelCapacity(i))
		if rho >= 1 {
			return math.Inf(1), false
		}
		wait[i] = m.waiting(rho)
	}

	rd := m.routerDelay()
	var sum, weight float64
	for s := 0; s < n; s++ {
		rs := topo.RouterOf(s)
		for d := 0; d < n; d++ {
			share := m.Traffic.Share(s, d, n)
			if share == 0 {
				continue
			}
			rdst := topo.RouterOf(d)
			var lat float64
			if rs == rdst {
				lat = rd // co-located modules cross one router
			} else {
				chans := topo.RouteChannels(rs, rdst)
				lat = float64(len(chans)+1) * rd
				for _, c := range chans {
					lat += wait[c]
				}
			}
			sum += share * lat
			weight += share
		}
	}
	if weight == 0 {
		return 0, true
	}
	return sum / weight, true
}

// CurvePoint is one sample of a latency-versus-injection sweep.
type CurvePoint struct {
	InjectionRate float64
	LatencyCycles float64
	Saturated     bool
}

// ZeroLoadLatency returns the latency floor (no queueing).
func (m Model) ZeroLoadLatency() float64 {
	lat, _ := m.AvgLatency(0)
	return lat
}
