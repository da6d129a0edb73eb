package noc

import (
	"fmt"
	"slices"
)

// routePlan is the shape of the dimension-order route from src to dst:
// the signed leg lengths in walk order and their sum, the hop count.
// Packets needing a layer change on a pillar-constrained mesh first
// detour in-plane (X, then Y) to the TSV pillar of the source's block;
// every route then crosses layers (Z) and finishes in-plane (X, then Y).
type routePlan struct {
	detourX, detourY, z, x, y int
	hops                      int
}

func (m *Mesh) planRoute(src, dst int) routePlan {
	if src < 0 || src >= m.NumRouters() || dst < 0 || dst >= m.NumRouters() {
		panic(fmt.Sprintf("noc: route endpoints (%d, %d) out of range", src, dst))
	}
	x, y, z := m.Coords(src)
	dx, dy, dz := m.Coords(dst)
	px, py := x, y
	if z != dz && !m.hasPillar(x, y) {
		px, py = x-x%m.verticalEvery, y-y%m.verticalEvery
	}
	p := routePlan{detourX: px - x, detourY: py - y, z: dz - z, x: dx - px, y: dy - py}
	p.hops = absInt(p.detourX) + absInt(p.detourY) + absInt(p.z) + absInt(p.x) + absInt(p.y)
	return p
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AppendRouteChannels appends the channel ids of the dimension-order
// route from src to dst to buf and returns the extended slice. It walks
// the route's legs (optional pillar detour, then Z, then X, then Y)
// through the per-router direction table without building the router
// path, so a caller reusing buf across router pairs does not allocate.
func (m *Mesh) AppendRouteChannels(buf []int, src, dst int) []int {
	p := m.planRoute(src, dst)
	buf = slices.Grow(buf, p.hops)
	strideY, strideZ := m.dims[0], m.dims[0]*m.dims[1]
	r := src
	buf, r = m.appendLeg(buf, r, p.detourX, 1)
	buf, r = m.appendLeg(buf, r, p.detourY, strideY)
	buf, r = m.appendLeg(buf, r, p.z, strideZ)
	buf, r = m.appendLeg(buf, r, p.x, 1)
	buf, _ = m.appendLeg(buf, r, p.y, strideY)
	return buf
}

// appendLeg appends the channels of |n| single-dimension steps from
// router r, each moving the router id by sign(n)*stride, and returns the
// router reached.
func (m *Mesh) appendLeg(buf []int, r, n, stride int) ([]int, int) {
	if n == 0 {
		return buf, r
	}
	if n < 0 {
		n, stride = -n, -stride
	}
	slot := 0
	for slot < m.numDeltas && m.moveDeltas[slot] != stride {
		slot++
	}
	for ; n > 0; n-- {
		if slot == m.numDeltas || m.chanDir[r*6+slot] < 0 {
			panic(fmt.Sprintf("noc: route step %d -> %d has no channel", r, r+stride))
		}
		buf = append(buf, int(m.chanDir[r*6+slot]))
		r += stride
	}
	return buf, r
}

// Route returns the router sequence from src to dst under the
// deterministic dimension-order routing of AppendRouteChannels. The
// result includes both endpoints; src == dst yields a single-element
// path.
func (m *Mesh) Route(src, dst int) []int {
	path := make([]int, 1, m.Hops(src, dst)+1)
	path[0] = src
	path = m.AppendRouteChannels(path, src, dst)
	for i := 1; i < len(path); i++ {
		path[i] = m.channels[path[i]].To
	}
	return path
}

// RouteChannels returns the channel ids traversed from src to dst.
func (m *Mesh) RouteChannels(src, dst int) []int { return m.AppendRouteChannels(nil, src, dst) }

// Hops returns the channel count of the route from src to dst.
func (m *Mesh) Hops(src, dst int) int { return m.planRoute(src, dst).hops }

// Metrics summarises a topology's structural properties (the Fig. 7
// comparison).
type Metrics struct {
	Name              string
	Routers           int
	Modules           int
	Channels          int
	VerticalChannels  int
	Diameter          int     // max router hops over module pairs
	AvgHops           float64 // mean router hops over distinct module pairs
	BisectionChannels int     // directed channels cut by the widest-dimension bisection
}

// ComputeMetrics evaluates the structural metrics.
func (m *Mesh) ComputeMetrics() Metrics {
	mt := Metrics{
		Name:     m.name,
		Routers:  m.NumRouters(),
		Modules:  m.NumModules(),
		Channels: m.NumChannels(),
	}
	for _, c := range m.channels {
		if c.Vertical {
			mt.VerticalChannels++
		}
	}

	// Hop statistics over router pairs, weighted by module count: with
	// concentration c, each router pair corresponds to c*c module pairs
	// and same-router pairs to c*(c-1).
	n := m.NumRouters()
	conc := float64(m.concentration)
	var sum, pairs float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				pairs += conc * (conc - 1)
				continue // zero hops between co-located modules
			}
			h := m.Hops(s, d)
			if h > mt.Diameter {
				mt.Diameter = h
			}
			sum += float64(h) * conc * conc
			pairs += conc * conc
		}
	}
	if pairs > 0 {
		mt.AvgHops = sum / pairs
	}

	// Bisection across the largest dimension.
	bestDim, bestExt := 0, 0
	for i, e := range m.dims {
		if e > bestExt {
			bestDim, bestExt = i, e
		}
	}
	cut := bestExt / 2
	for _, c := range m.channels {
		var a, b [3]int
		a[0], a[1], a[2] = m.Coords(c.From)
		b[0], b[1], b[2] = m.Coords(c.To)
		if (a[bestDim] < cut) != (b[bestDim] < cut) {
			mt.BisectionChannels++
		}
	}
	return mt
}
