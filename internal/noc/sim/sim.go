// Package sim is an event-driven flit-level NoC simulator used to
// cross-validate the analytic queueing model of package analytic (the
// paper's ref. [14] validates its model the same way).
//
// The service discipline mirrors the analytic model: each traversed
// router costs a fixed pipeline delay, each channel is a FIFO server
// whose occupancy per flit is 1/ChannelEfficiency cycles, and modules
// inject single-flit packets as independent Poisson processes.
package sim

import (
	"fmt"
	"math"

	"repro/internal/noc"
	"repro/internal/rng"
)

// Config parameterises one simulation run.
type Config struct {
	Topo    *noc.Mesh
	Traffic noc.TrafficPattern
	// InjectionRate is in flits/cycle/module.
	InjectionRate float64
	// RouterDelayCycles is the per-router pipeline cost (0 means 2),
	// matching analytic.Model.
	RouterDelayCycles float64
	// ChannelEfficiency derates channel capacity (0 means 0.8), matching
	// analytic.Model.
	ChannelEfficiency float64
	// VerticalCapacity scales vertical-channel bandwidth (0 means 1),
	// matching analytic.Model.
	VerticalCapacity float64
	// WarmupCycles are simulated but not measured (0 means 2000).
	WarmupCycles float64
	// MeasureCycles is the measurement window (0 means 10000).
	MeasureCycles float64
	// Seed makes the run reproducible.
	Seed uint64
	// SatLatencyCycles declares saturation when the mean delivered
	// latency exceeds it (0 means 500).
	SatLatencyCycles float64
}

func (c Config) defaults() Config {
	if c.RouterDelayCycles == 0 {
		c.RouterDelayCycles = 2
	}
	if c.ChannelEfficiency == 0 {
		c.ChannelEfficiency = 0.8
	}
	if c.VerticalCapacity == 0 {
		c.VerticalCapacity = 1
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 10000
	}
	if c.SatLatencyCycles == 0 {
		c.SatLatencyCycles = 500
	}
	return c
}

// Result summarises a run.
type Result struct {
	// MeanLatencyCycles is the average injection-to-delivery latency of
	// packets injected during the measurement window.
	MeanLatencyCycles float64
	// P95LatencyCycles is the 95th percentile latency (approximate, from
	// a fixed-resolution histogram).
	P95LatencyCycles float64
	// Injected and Delivered count measurement-window packets.
	Injected, Delivered int
	// ThroughputPerModule is delivered flits/cycle/module.
	ThroughputPerModule float64
	// Saturated is set when latency diverged or deliveries lagged
	// injections by more than 10%.
	Saturated bool
}

// event is a packet becoming ready at a router. Events are processed
// in (time, seq) order; seq is unique, so the order is strict and any
// exact priority structure pops the same sequence.
type event struct {
	time float64
	seq  int64 // tie-break for determinism
	pkt  int32
}

func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap in (time, seq) order.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// replaceMin overwrites the minimum with e and restores heap order.
func (q eventQueue) replaceMin(e event) {
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// popMin removes the minimum.
func (q *eventQueue) popMin() {
	h := *q
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		h.replaceMin(last)
	}
	*q = h
}

type packet struct {
	injected float64
	route    []int // channel ids, consumed front to back
	hop      int32
	measured bool
	// lastOfRun marks its source module's last packet.
	lastOfRun bool
}

// Run executes the simulation.
func Run(cfg Config) Result {
	cfg = cfg.defaults()
	if cfg.InjectionRate < 0 {
		panic(fmt.Sprintf("sim: negative injection rate %g", cfg.InjectionRate))
	}
	topo := cfg.Topo
	n := topo.NumModules()
	horizon := cfg.WarmupCycles + cfg.MeasureCycles
	rd := cfg.RouterDelayCycles
	// Per-channel service time: vertical links may be faster.
	serviceOf := make([]float64, topo.NumChannels())
	for i, ch := range topo.Channels() {
		s := 1 / cfg.ChannelEfficiency
		if ch.Vertical {
			s /= cfg.VerticalCapacity
		}
		serviceOf[i] = s
	}

	// Pre-generate Poisson injections, module by module. Packets are
	// numbered in generation order and that number is their injection
	// event's seq, so each module's packets form a run already in
	// (time, seq) order. The queue merges the runs: it holds each
	// module's next injection and the in-flight hop events.
	var packets []packet
	var queue eventQueue
	var injectedMeasured int
	if cfg.InjectionRate > 0 {
		expected := cfg.InjectionRate * horizon * float64(n)
		packets = make([]packet, 0, int(expected+4*math.Sqrt(expected)+16))
		queue = make(eventQueue, 0, 4*n)
		shares := make([]float64, n)
		// routeRow caches routes from the current source router (a
		// router's modules are numbered consecutively). The routes
		// themselves are carved out of one growing arena; packets keep
		// their slices of an outgrown arena alive, and nothing writes
		// to a route once carved.
		routeRow := make([][]int, topo.NumRouters())
		rowOf := -1
		var arena []int
		for mod := 0; mod < n; mod++ {
			last := runningShares(shares, cfg.Traffic, mod)
			if last < 0 {
				continue // the module emits no traffic
			}
			rs := topo.RouterOf(mod)
			if rs != rowOf {
				clear(routeRow)
				rowOf = rs
			}
			first := len(packets)
			stream := rng.New(cfg.Seed).Split(uint64(mod) + 1)
			for t := stream.Exp(cfg.InjectionRate); t < horizon; t += stream.Exp(cfg.InjectionRate) {
				dst := pickDestination(shares, last, stream.Float64())
				rdst := topo.RouterOf(dst)
				if routeRow[rdst] == nil {
					start := len(arena)
					arena = topo.AppendRouteChannels(arena, rs, rdst)
					routeRow[rdst] = arena[start:len(arena):len(arena)]
				}
				p := packet{injected: t, route: routeRow[rdst], measured: t >= cfg.WarmupCycles}
				if p.measured {
					injectedMeasured++
				}
				packets = append(packets, p)
			}
			if len(packets) > first {
				packets[len(packets)-1].lastOfRun = true
				queue.push(injection(packets, int32(first), rd))
			}
		}
	}

	chanFree := make([]float64, topo.NumChannels())
	const histRes = 0.5
	var hist []int
	var delivered int
	var latencySum float64

	// The events an event schedules (its module's next injection, its
	// packet's next hop) take its slot at the heap top; a second one is
	// pushed. The common hop-to-hop step thus costs one sift, not two.
	seq := int64(len(packets))
	for len(queue) > 0 {
		e := queue[0]
		p := &packets[e.pkt]
		var scheduled [2]event
		k := 0
		if p.hop == 0 && !p.lastOfRun {
			scheduled[k] = injection(packets, e.pkt+1, rd)
			k++
		}
		if int(p.hop) == len(p.route) {
			// Ready at the destination router: delivered.
			if p.measured {
				delivered++
				lat := e.time - p.injected
				latencySum += lat
				bucket := int(lat / histRes)
				if bucket >= len(hist) {
					hist = append(hist, make([]int, bucket-len(hist)+1)...)
				}
				hist[bucket]++
			}
		} else {
			c := p.route[p.hop]
			depart := e.time
			if chanFree[c] > depart {
				depart = chanFree[c]
			}
			chanFree[c] = depart + serviceOf[c]
			p.hop++
			scheduled[k] = event{time: depart + rd, seq: seq, pkt: e.pkt}
			seq++
			k++
		}
		switch k {
		case 0:
			queue.popMin()
		case 1:
			queue.replaceMin(scheduled[0])
		case 2:
			queue.replaceMin(scheduled[0])
			queue.push(scheduled[1])
		}
	}
	res := Result{Injected: injectedMeasured, Delivered: delivered}
	if delivered > 0 {
		res.MeanLatencyCycles = latencySum / float64(delivered)
		res.P95LatencyCycles = percentileFromHist(hist, delivered, 0.95) * histRes
		res.ThroughputPerModule = float64(delivered) / (cfg.MeasureCycles * float64(n))
	}
	// The event loop drains every packet eventually (infinite queues), so
	// saturation shows up as diverging latency rather than lost packets.
	if res.MeanLatencyCycles > cfg.SatLatencyCycles ||
		(injectedMeasured > 0 && float64(delivered) < 0.9*float64(injectedMeasured)) {
		res.Saturated = true
	}
	if math.IsNaN(res.MeanLatencyCycles) {
		res.Saturated = true
	}
	return res
}

// injection is packet i's injection event: ready at its source router
// one router delay after it is injected, ordered by its packet number.
func injection(packets []packet, i int32, rd float64) event {
	return event{time: packets[i].injected + rd, seq: int64(i), pkt: i}
}

// runningShares fills shares with src's running share sums, added in
// destination order exactly as a linear scan would add them, and
// returns the last destination with a positive share (-1 when src
// emits no traffic). Shares must be non-negative, which keeps the sums
// sorted for pickDestination's binary search.
func runningShares(shares []float64, tp noc.TrafficPattern, src int) (last int) {
	tp.Row(src, shares)
	var acc float64
	last = -1
	for d, s := range shares {
		if !(s >= 0) {
			panic(fmt.Sprintf("sim: %s share %g from module %d to %d is not a fraction", tp, s, src, d))
		}
		if s > 0 {
			last = d
		}
		acc += s
		shares[d] = acc
	}
	return last
}

// pickDestination returns the first destination whose running share
// sum exceeds u. A u at or above the final sum (rounding residue)
// goes to last, the last destination with a share.
func pickDestination(shares []float64, last int, u float64) int {
	lo, hi := 0, len(shares)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < shares[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(shares) {
		return last
	}
	return lo
}

func percentileFromHist(hist []int, total int, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := int(math.Ceil(q * float64(total)))
	var acc int
	for b, c := range hist {
		acc += c
		if acc >= target {
			return float64(b)
		}
	}
	return float64(len(hist) - 1)
}
