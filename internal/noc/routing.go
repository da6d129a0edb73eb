package noc

import (
	"fmt"
	"slices"
)

// routePlan is the shape of the dimension-order route from src to dst:
// the signed leg lengths in walk order; their absolute sum is the hop
// count.
// Packets needing a layer change on a pillar-constrained mesh first
// detour in-plane (X, then Y) to the TSV pillar of the source's block;
// every route then crosses layers (Z) and finishes in-plane (X, then Y).
type routePlan struct {
	detourX, detourY, z, x, y int
}

func (p routePlan) hops() int {
	return absInt(p.detourX) + absInt(p.detourY) + absInt(p.z) + absInt(p.x) + absInt(p.y)
}

func (m *Mesh) planRoute(src, dst int) routePlan {
	if n := uint(len(m.coords)); uint(src) >= n || uint(dst) >= n {
		panicEndpoints(src, dst)
	}
	x, y, z := m.Coords(src)
	dx, dy, dz := m.Coords(dst)
	px, py := m.detour(x, y, z != dz)
	return routePlan{detourX: px - x, detourY: py - y, z: dz - z, x: dx - px, y: dy - py}
}

func panicEndpoints(src, dst int) {
	panic(fmt.Sprintf("noc: route endpoints (%d, %d) out of range", src, dst))
}

// detour returns the in-plane position (px, py) a route from (x, y)
// crosses layers at: the TSV pillar of the source's block when the
// route changes layer, else (x, y) itself. A router with a pillar is
// its own block's pillar, so it needs no test of its own, and with a
// pillar at every router the position cannot move.
func (m *Mesh) detour(x, y int, layerChange bool) (px, py int) {
	if layerChange && m.verticalEvery > 1 {
		return x - x%m.verticalEvery, y - y%m.verticalEvery
	}
	return x, y
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
	buf = slices.Grow(buf, p.hops())
	r := src
	buf, r = m.appendLeg(buf, r, p.detourX, 0)
	buf, r = m.appendLeg(buf, r, p.detourY, 1)
	buf, r = m.appendLeg(buf, r, p.z, 2)
	buf, r = m.appendLeg(buf, r, p.x, 0)
	buf, _ = m.appendLeg(buf, r, p.y, 1)
	return buf
}

// appendLeg appends the channels of |n| steps along dimension dim from
// router r, up for n > 0 and down for n < 0, and returns the router
// reached. A route step without a channel is a bug.
func (m *Mesh) appendLeg(buf []int, r, n, dim int) ([]int, int) {
	slot, stride := m.direction(dim, n > 0)
	for range absInt(n) {
		ch := m.chanDir[r*6+slot]
		if ch < 0 {
			panicNoChannel(r, r+stride)
		}
		buf = append(buf, int(ch))
		r += stride
	}
	return buf, r
}

// direction returns the direction-table slot of a step up (or down)
// along dimension dim and the router-id delta of that step.
func (m *Mesh) direction(dim int, up bool) (slot, stride int) {
	if up {
		return 2*dim + 1, m.strides[dim]
	}
	return 2 * dim, -m.strides[dim]
}

func panicNoChannel(from, to int) {
	panic(fmt.Sprintf("noc: route step %d -> %d has no channel", from, to))
}

// LastHop returns the final channel of the dimension-order route from
// src to dst and the router prev that channel leaves; src == dst has no
// channel and yields (-1, src). Every prefix of a route is itself the
// route to the router it reaches, so prev's route is dst's minus this
// hop: following LastHop from dst back to src retraces
// AppendRouteChannels in reverse, and the routes from one source form a
// tree.
//
// The last hop is on the final nonempty leg, Y, then X, then Z. A
// pillar detour is planned only for a layer change, so a nonempty Z leg
// always follows it and the last hop is never a detour step; the
// detour only shifts where the X and Y legs start. LastHop reads the
// two coordinates and the direction table once instead of planning the
// whole route: Compile calls it once per router on every source's
// route tree.
func (m *Mesh) LastHop(src, dst int) (ch, prev int) {
	if n := uint(len(m.coords)); uint(src) >= n || uint(dst) >= n {
		panicEndpoints(src, dst)
	}
	s, d := m.coords[src], m.coords[dst]
	px, py := m.detour(int(s[0]), int(s[1]), s[2] != d[2])
	var dim int
	var up bool
	switch {
	case int(d[1]) != py:
		dim, up = 1, int(d[1]) > py
	case int(d[0]) != px:
		dim, up = 0, int(d[0]) > px
	case s[2] != d[2]:
		dim, up = 2, d[2] > s[2]
	default:
		return -1, src
	}
	slot, stride := m.direction(dim, up)
	prev = dst - stride
	if ch = int(m.chanDir[prev*6+slot]); ch < 0 {
		panicNoChannel(prev, dst)
	}
	return ch, prev
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
		path[i] = int(m.channels[path[i]].To)
	}
	return path
}

// RouteChannels returns the channel ids traversed from src to dst.
func (m *Mesh) RouteChannels(src, dst int) []int { return m.AppendRouteChannels(nil, src, dst) }

// Hops returns the channel count of the route from src to dst.
func (m *Mesh) Hops(src, dst int) int { return m.planRoute(src, dst).hops() }

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
		a[0], a[1], a[2] = m.Coords(int(c.From))
		b[0], b[1], b[2] = m.Coords(int(c.To))
		if (a[bestDim] < cut) != (b[bestDim] < cut) {
			mt.BisectionChannels++
		}
	}
	return mt
}
