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

// Channel is a directed router-to-router link. Its router ids are
// int32, like the rest of the mesh's tables: compiled topologies are
// cached, and the channel table is their largest part.
type Channel struct {
	From, To int32
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

	// Channel lookup by (router, signed direction). Route steps always
	// move along exactly one dimension; direction slot 2*dim+1 moves up
	// that dimension (adding strides[dim] to the router id) and 2*dim
	// down, and chanDir[r*6+slot] is the channel leaving router r that
	// way, or -1 at a mesh edge, off a TSV pillar or along a dimension
	// of extent 1. This replaces a map[[2]int]int whose hashing
	// dominated route compilation profiles.
	strides [3]int
	chanDir []int32

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
	m.strides = [3]int{1, dims[0], dims[0] * dims[1]}
	// Size the channel table exactly: compiled topologies are cached,
	// and append's spare capacity would stay resident with them.
	pillars := dims[0] * dims[1]
	if verticalEvery > 1 {
		pillars = ((dims[0] + verticalEvery - 1) / verticalEvery) * ((dims[1] + verticalEvery - 1) / verticalEvery)
	}
	links := (dims[0]-1)*dims[1]*dims[2] + dims[0]*(dims[1]-1)*dims[2] + pillars*(dims[2]-1)
	m.channels = make([]Channel, 0, 2*links)
	m.coords = make([][3]int32, m.NumRouters())
	m.chanDir = make([]int32, m.NumRouters()*6)
	for i := range m.chanDir {
		m.chanDir[i] = -1
	}
	// link adds the channel pair between router r and its upper
	// neighbour along dim.
	link := func(r, dim int, vertical bool) {
		up := r + m.strides[dim]
		m.chanDir[r*6+2*dim+1] = int32(len(m.channels))
		m.channels = append(m.channels, Channel{From: int32(r), To: int32(up), Vertical: vertical})
		m.chanDir[up*6+2*dim] = int32(len(m.channels))
		m.channels = append(m.channels, Channel{From: int32(up), To: int32(r), Vertical: vertical})
	}
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				r := m.RouterAt(x, y, z)
				m.coords[r] = [3]int32{int32(x), int32(y), int32(z)}
				if x+1 < dims[0] {
					link(r, 0, false)
				}
				if y+1 < dims[1] {
					link(r, 1, false)
				}
				if z+1 < dims[2] && m.hasPillar(x, y) {
					link(r, 2, true)
				}
			}
		}
	}
	return m
}

func (m *Mesh) hasPillar(x, y int) bool {
	return m.verticalEvery == 1 || x%m.verticalEvery == 0 && y%m.verticalEvery == 0
}

// Name returns a human-readable topology label.
func (m *Mesh) Name() string { return m.name }

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
// the per-router table answers in a handful of integer compares. The
// strides of the dimensions that have channels (extent > 1) are
// distinct, so at most one slot matches.
func (m *Mesh) ChannelID(a, b int) int {
	if a < 0 || a >= m.NumRouters() || b < 0 || b >= m.NumRouters() {
		return -1
	}
	d := b - a
	for dim, stride := range m.strides {
		if m.dims[dim] == 1 {
			continue
		}
		switch d {
		case stride:
			return int(m.chanDir[a*6+2*dim+1])
		case -stride:
			return int(m.chanDir[a*6+2*dim])
		}
	}
	return -1
}
