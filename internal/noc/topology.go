// Package noc models the 3D Network-in-Chip-Stack topologies of the
// paper's Sec. IV: 2D mesh, star-mesh (concentrated mesh), 3D mesh and
// ciliated 3D mesh (Fig. 7), with dimension-order routing and the traffic
// patterns used by the performance analysis (Fig. 8).
//
// A topology is a grid of routers; each router concentrates one or more
// modules (processing elements). Channels are directed router-to-router
// links; module injection/ejection ports are modelled separately by the
// analytic and simulation packages.
package noc

import (
	"fmt"
)

// Channel is a directed router-to-router link.
type Channel struct {
	From, To int
	// Vertical marks inter-layer (TSV / inductive / capacitive / wireless)
	// links, which future work expects to offer higher bandwidth than
	// in-plane wires.
	Vertical bool
}

// Mesh is a rectangular k-ary mesh in up to three dimensions with
// optional module concentration, covering all four topology types of
// Fig. 7.
type Mesh struct {
	name string
	// dims holds the router-grid extent per dimension (z = 1 for 2D).
	dims [3]int
	// concentration is the number of modules attached to each router.
	concentration int
	// verticalEvery places TSV pillars only at routers with
	// x%k == 0 && y%k == 0 (1 = every router; the paper's future-work
	// remark that TSV area may not allow a vertical link per router).
	verticalEvery int

	channels []Channel

	// Channel lookup by (router, move direction). Route steps always
	// move along exactly one dimension, so the id delta To-From of a
	// channel identifies its direction; moveDeltas holds the distinct
	// deltas that occur in this mesh (at most 6) and chanDir[r*6+slot]
	// the channel id leaving router r with that delta, or -1. This
	// replaces a map[[2]int]int whose hashing dominated route
	// compilation profiles.
	moveDeltas [6]int
	numDeltas  int
	chanDir    []int32

	// coords[r] is router r's grid position, so Coords, which every
	// route plan calls twice, does not divide.
	coords [][3]int32
}

// NewMesh2D returns a w x h mesh with one module per router
// (the classical 2D mesh reference, e.g. 8x8 for 64 modules).
func NewMesh2D(w, h int) *Mesh {
	return newMesh(fmt.Sprintf("%dx%d 2D mesh", w, h), [3]int{w, h, 1}, 1, 1)
}

// NewStarMesh returns a w x h mesh with conc modules concentrated per
// router (the star-mesh / concentrated mesh of Fig. 7, e.g. 4x4 with 4).
func NewStarMesh(w, h, conc int) *Mesh {
	return newMesh(fmt.Sprintf("%dx%d star-mesh (c=%d)", w, h, conc), [3]int{w, h, 1}, conc, 1)
}

// NewMesh3D returns an x × y × z mesh with one module per router
// (the 3D mesh of Fig. 7, e.g. 4x4x4 for 64 modules).
func NewMesh3D(x, y, z int) *Mesh {
	return newMesh(fmt.Sprintf("%dx%dx%d 3D mesh", x, y, z), [3]int{x, y, z}, 1, 1)
}

// NewCiliated3D returns an x × y × z mesh with conc modules per router
// (the ciliated 3D mesh of Fig. 7: a star-mesh extended into the third
// dimension).
func NewCiliated3D(x, y, z, conc int) *Mesh {
	return newMesh(fmt.Sprintf("%dx%dx%d ciliated 3D mesh (c=%d)", x, y, z, conc), [3]int{x, y, z}, conc, 1)
}

// NewPillarMesh3D returns a 3D mesh where only routers at positions with
// x%every == 0 && y%every == 0 carry vertical links — the TSV-area
// constrained variant raised in the paper's outlook. every must be >= 1.
func NewPillarMesh3D(x, y, z, every int) *Mesh {
	return newMesh(fmt.Sprintf("%dx%dx%d 3D mesh (TSV pillars every %d)", x, y, z, every),
		[3]int{x, y, z}, 1, every)
}

func newMesh(name string, dims [3]int, conc, verticalEvery int) *Mesh {
	for i, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("noc: dimension %d extent %d < 1", i, d))
		}
	}
	if conc < 1 {
		panic(fmt.Sprintf("noc: concentration %d < 1", conc))
	}
	if verticalEvery < 1 {
		panic(fmt.Sprintf("noc: vertical pillar spacing %d < 1", verticalEvery))
	}
	m := &Mesh{
		name:          name,
		dims:          dims,
		concentration: conc,
		verticalEvery: verticalEvery,
	}
	m.coords = make([][3]int32, m.NumRouters())
	addChan := func(a, b int, vertical bool) {
		m.channels = append(m.channels, Channel{From: a, To: b, Vertical: vertical})
	}
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				r := m.RouterAt(x, y, z)
				m.coords[r] = [3]int32{int32(x), int32(y), int32(z)}
				if x+1 < dims[0] {
					addChan(r, m.RouterAt(x+1, y, z), false)
					addChan(m.RouterAt(x+1, y, z), r, false)
				}
				if y+1 < dims[1] {
					addChan(r, m.RouterAt(x, y+1, z), false)
					addChan(m.RouterAt(x, y+1, z), r, false)
				}
				if z+1 < dims[2] && m.hasPillar(x, y) {
					addChan(r, m.RouterAt(x, y, z+1), true)
					addChan(m.RouterAt(x, y, z+1), r, true)
				}
			}
		}
	}

	// Distinct move deltas never collide: dimensions collapsed to
	// extent 1 generate no channels, and the remaining deltas
	// (±1, ±dimX, ±dimX*dimY) differ whenever their moves exist.
	m.chanDir = make([]int32, m.NumRouters()*6)
	for i := range m.chanDir {
		m.chanDir[i] = -1
	}
	for id, c := range m.channels {
		d := c.To - c.From
		slot := -1
		for s := 0; s < m.numDeltas; s++ {
			if m.moveDeltas[s] == d {
				slot = s
				break
			}
		}
		if slot < 0 {
			slot = m.numDeltas
			m.moveDeltas[slot] = d
			m.numDeltas++
		}
		m.chanDir[c.From*6+slot] = int32(id)
	}
	return m
}

func (m *Mesh) hasPillar(x, y int) bool {
	return m.verticalEvery == 1 || x%m.verticalEvery == 0 && y%m.verticalEvery == 0
}

// Name returns a human-readable topology label.
func (m *Mesh) Name() string { return m.name }

// Dims returns the router-grid extents.
func (m *Mesh) Dims() (x, y, z int) { return m.dims[0], m.dims[1], m.dims[2] }

// NumRouters returns the router count.
func (m *Mesh) NumRouters() int { return m.dims[0] * m.dims[1] * m.dims[2] }

// Concentration returns the modules per router.
func (m *Mesh) Concentration() int { return m.concentration }

// NumModules returns the total module (processing element) count.
func (m *Mesh) NumModules() int { return m.NumRouters() * m.concentration }

// NumChannels returns the number of directed router-to-router channels.
func (m *Mesh) NumChannels() int { return len(m.channels) }

// Channels returns the channel table; callers must not modify it.
func (m *Mesh) Channels() []Channel { return m.channels }

// RouterAt returns the router id of grid position (x, y, z).
func (m *Mesh) RouterAt(x, y, z int) int {
	return (z*m.dims[1]+y)*m.dims[0] + x
}

// Coords returns the grid position of a router id.
func (m *Mesh) Coords(router int) (x, y, z int) {
	c := m.coords[router]
	return int(c[0]), int(c[1]), int(c[2])
}

// RouterOf returns the router a module attaches to.
func (m *Mesh) RouterOf(module int) int { return module / m.concentration }

// ChannelID returns the index of the directed channel a -> b, or -1 if
// the routers are not adjacent. A channel exists only for a
// single-dimension move, so the id delta picks the direction slot and
// the per-router table answers in a handful of integer compares.
func (m *Mesh) ChannelID(a, b int) int {
	if a < 0 || a >= m.NumRouters() || b < 0 || b >= m.NumRouters() {
		return -1
	}
	d := b - a
	for s := 0; s < m.numDeltas; s++ {
		if m.moveDeltas[s] == d {
			return int(m.chanDir[a*6+s])
		}
	}
	return -1
}
