package noc

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeshCounts(t *testing.T) {
	cases := []struct {
		m        *Mesh
		routers  int
		modules  int
		channels int
	}{
		// 8x8 2D mesh: 2*2*(7*8) = 224 directed channels.
		{NewMesh2D(8, 8), 64, 64, 224},
		// 4x4 star-mesh c=4: 64 modules on 16 routers, 2*2*(3*4) = 48.
		{NewStarMesh(4, 4, 4), 16, 64, 48},
		// 4x4x4 3D mesh: 3 dims * 2 dirs * 3*4*4 = 288.
		{NewMesh3D(4, 4, 4), 64, 64, 288},
		// 32x16 2D mesh (512 modules).
		{NewMesh2D(32, 16), 512, 512, 2*31*16 + 2*15*32},
		// 8x8x8 3D mesh.
		{NewMesh3D(8, 8, 8), 512, 512, 3 * 2 * 7 * 64},
		// Ciliated 3D mesh: 4x4x2 with c=2 = 64 modules.
		{NewCiliated3D(4, 4, 2, 2), 32, 64, 2*2*3*4*2 + 2*16},
	}
	for _, c := range cases {
		if got := c.m.NumRouters(); got != c.routers {
			t.Errorf("%s: routers = %d, want %d", c.m.Name(), got, c.routers)
		}
		if got := c.m.NumModules(); got != c.modules {
			t.Errorf("%s: modules = %d, want %d", c.m.Name(), got, c.modules)
		}
		if got := c.m.NumChannels(); got != c.channels {
			t.Errorf("%s: channels = %d, want %d", c.m.Name(), got, c.channels)
		}
	}
}

// newMesh sizes the channel table up front; the count must be exact,
// pillar meshes whose extents the spacing does not divide included.
func TestChannelTableSizedExactly(t *testing.T) {
	for _, m := range routeFamilies() {
		if len(m.channels) != cap(m.channels) {
			t.Errorf("%s: %d channels in a table of capacity %d", m.Name(), len(m.channels), cap(m.channels))
		}
	}
}

func TestMeshPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zeroDim":    func() { NewMesh2D(0, 4) },
		"zeroConc":   func() { NewStarMesh(4, 4, 0) },
		"zeroPillar": func() { NewPillarMesh3D(4, 4, 2, 0) },
		"routeOOR":   func() { NewMesh2D(2, 2).Route(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	m := NewMesh3D(3, 4, 5)
	for r := 0; r < m.NumRouters(); r++ {
		x, y, z := m.Coords(r)
		if m.RouterAt(x, y, z) != r {
			t.Fatalf("coords round trip failed for router %d", r)
		}
	}
}

func TestRouterOf(t *testing.T) {
	m := NewStarMesh(4, 4, 4)
	if m.RouterOf(0) != 0 || m.RouterOf(3) != 0 || m.RouterOf(4) != 1 || m.RouterOf(63) != 15 {
		t.Error("module-to-router attachment wrong")
	}
}

func TestDimensionOrderRoute(t *testing.T) {
	m := NewMesh3D(4, 4, 4)
	src := m.RouterAt(0, 0, 0)
	dst := m.RouterAt(2, 3, 1)
	path := m.Route(src, dst)
	// Z first (1 hop), then X (2), then Y (3): 6 channels, 7 routers.
	want := []int{src, m.RouterAt(0, 0, 1), m.RouterAt(1, 0, 1), m.RouterAt(2, 0, 1),
		m.RouterAt(2, 1, 1), m.RouterAt(2, 2, 1), dst}
	if !slices.Equal(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := 1; i < len(path); i++ {
		if m.ChannelID(path[i-1], path[i]) < 0 {
			t.Fatalf("non-adjacent step %d -> %d", path[i-1], path[i])
		}
	}
	if m.Hops(src, dst) != 6 {
		t.Errorf("hops = %d, want 6 (Manhattan distance)", m.Hops(src, dst))
	}
}

// routeFamilies covers every topology family the design pipeline
// compiles (2D, star, 3D, ciliated), ragged extents, meshes with a
// collapsed dimension (extent 1, so its directions have no channel and
// its stride equals a neighbour's), and pillar-constrained meshes whose
// layer changes detour, including extents the spacing does not divide.
func routeFamilies() []*Mesh {
	return []*Mesh{
		NewMesh2D(5, 3),
		NewStarMesh(3, 2, 4),
		NewMesh3D(3, 4, 3),
		NewCiliated3D(3, 3, 2, 2),
		NewMesh3D(1, 1, 4),
		NewMesh2D(1, 6),
		NewMesh2D(6, 1),
		NewMesh3D(4, 1, 3),
		NewCiliated3D(1, 3, 2, 2),
		NewPillarMesh3D(4, 4, 2, 2),
		NewPillarMesh3D(5, 4, 3, 3),
		NewPillarMesh3D(7, 5, 2, 2),
		NewPillarMesh3D(1, 5, 3, 2),
	}
}

// referenceRoute is the router-path walk that channel routes used to be
// derived from: step one router at a time through the optional pillar
// detour, then Z, then X, then Y.
func referenceRoute(m *Mesh, src, dst int) []int {
	x, y, z := m.Coords(src)
	dx, dy, dz := m.Coords(dst)
	path := []int{src}
	step := func(nx, ny, nz int) {
		x, y, z = nx, ny, nz
		path = append(path, m.RouterAt(x, y, z))
	}
	walkXY := func(tx, ty int) {
		for x != tx {
			if x < tx {
				step(x+1, y, z)
			} else {
				step(x-1, y, z)
			}
		}
		for y != ty {
			if y < ty {
				step(x, y+1, z)
			} else {
				step(x, y-1, z)
			}
		}
	}
	if z != dz && !m.hasPillar(x, y) {
		walkXY(x-x%m.verticalEvery, y-y%m.verticalEvery)
	}
	for z != dz {
		if z < dz {
			step(x, y, z+1)
		} else {
			step(x, y, z-1)
		}
	}
	walkXY(dx, dy)
	return path
}

// The channel walk must reproduce the channels of the router-path walk
// for every router pair, and Route and Hops must agree with both.
func TestAppendRouteChannelsMatchesPathWalk(t *testing.T) {
	for _, m := range routeFamilies() {
		var buf []int
		for s := 0; s < m.NumRouters(); s++ {
			for d := 0; d < m.NumRouters(); d++ {
				path := referenceRoute(m, s, d)
				want := make([]int, 0, len(path)-1)
				for i := 1; i < len(path); i++ {
					id := m.ChannelID(path[i-1], path[i])
					if id < 0 {
						t.Fatalf("%s: reference step %d -> %d has no channel", m.Name(), path[i-1], path[i])
					}
					want = append(want, id)
				}
				buf = m.AppendRouteChannels(buf[:0], s, d)
				if !slices.Equal(buf, want) {
					t.Fatalf("%s: AppendRouteChannels(%d, %d) = %v, want %v", m.Name(), s, d, buf, want)
				}
				if got := m.RouteChannels(s, d); !slices.Equal(got, want) {
					t.Fatalf("%s: RouteChannels(%d, %d) = %v, want %v", m.Name(), s, d, got, want)
				}
				route := m.Route(s, d)
				if !slices.Equal(route, path) {
					t.Fatalf("%s: Route(%d, %d) = %v, want %v", m.Name(), s, d, route, path)
				}
				if h := m.Hops(s, d); h != len(route)-1 {
					t.Fatalf("%s: Hops(%d, %d) = %d, len(Route)-1 = %d", m.Name(), s, d, h, len(route)-1)
				}
			}
		}
	}
}

func TestAppendRouteChannelsAllocFree(t *testing.T) {
	m := NewPillarMesh3D(8, 8, 4, 2)
	buf := make([]int, 0, 64)
	n := m.NumRouters()
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < n; s += 13 {
			buf = m.AppendRouteChannels(buf[:0], s, n-1-s)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRouteChannels with a reused buffer: %g allocs/run, want 0", allocs)
	}
}

// Following LastHop from dst back to src must retrace the channel route
// in reverse, hop for hop, on every router pair of every family — the
// prefix property the compiled analytic model's route trees rest on.
func TestLastHopRetracesRoute(t *testing.T) {
	for _, m := range routeFamilies() {
		var back []int
		for s := 0; s < m.NumRouters(); s++ {
			for d := 0; d < m.NumRouters(); d++ {
				want := m.AppendRouteChannels(nil, s, d)
				back = back[:0]
				for r := d; r != s; {
					ch, prev := m.LastHop(s, r)
					if ch < 0 || len(back) == len(want) {
						t.Fatalf("%s: LastHop walk %d <- %d stuck at %d (channel %d)", m.Name(), s, d, r, ch)
					}
					if c := m.Channels()[ch]; int(c.From) != prev || int(c.To) != r {
						t.Fatalf("%s: LastHop(%d, %d) = channel %d (%d -> %d), prev %d", m.Name(), s, r, ch, c.From, c.To, prev)
					}
					back = append(back, ch)
					r = prev
				}
				slices.Reverse(back)
				if !slices.Equal(back, want) {
					t.Fatalf("%s: LastHop walk %d <- %d = %v reversed, route %v", m.Name(), s, d, back, want)
				}
			}
			if ch, prev := m.LastHop(s, s); ch != -1 || prev != s {
				t.Fatalf("%s: LastHop(%d, %d) = (%d, %d), want (-1, %d)", m.Name(), s, s, ch, prev, s)
			}
		}
	}
}

// LastHop rejects endpoints outside the mesh, and a route step whose
// direction-table entry is missing (a corrupted table) panics instead
// of naming channel -1.
func TestLastHopPanics(t *testing.T) {
	m := NewMesh3D(3, 2, 2)
	n := m.NumRouters()
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}, {n, n}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LastHop(%d, %d) did not panic", c[0], c[1])
				}
			}()
			m.LastHop(c[0], c[1])
		}()
	}
	broken := NewMesh2D(3, 1)
	broken.chanDir[0*6+1] = -1 // router 0's +X channel
	defer func() {
		if recover() == nil {
			t.Error("LastHop over a missing channel did not panic")
		}
	}()
	broken.LastHop(0, 1)
}

// ChannelID answers -1 for router pairs whose id delta matches a
// direction but which are not adjacent (a row wrap) or not in the mesh.
func TestChannelIDNonAdjacent(t *testing.T) {
	m := NewMesh2D(4, 4)
	for _, c := range [][2]int{{3, 4}, {4, 3}, {0, 5}, {0, 0}, {-1, 0}, {0, 16}} {
		if id := m.ChannelID(c[0], c[1]); id != -1 {
			t.Errorf("ChannelID(%d, %d) = %d, want -1", c[0], c[1], id)
		}
	}
	if id := NewMesh2D(1, 4).ChannelID(1, 2); id < 0 {
		t.Error("1x4 mesh: no channel between vertical neighbours 1 and 2")
	}
}

func TestLastHopAllocFree(t *testing.T) {
	m := NewPillarMesh3D(8, 8, 4, 2)
	n := m.NumRouters()
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < n; s += 13 {
			m.LastHop(s, n-1-s)
		}
	})
	if allocs != 0 {
		t.Errorf("LastHop: %g allocs/run, want 0", allocs)
	}
}

func TestRouteSelfIsSingleton(t *testing.T) {
	m := NewMesh2D(4, 4)
	if p := m.Route(5, 5); len(p) != 1 || p[0] != 5 {
		t.Errorf("self route = %v", p)
	}
	if len(m.RouteChannels(5, 5)) != 0 {
		t.Error("self route has channels")
	}
}

func TestRouteHopsEqualManhattan(t *testing.T) {
	m := NewMesh3D(4, 4, 4)
	for s := 0; s < m.NumRouters(); s += 7 {
		for d := 0; d < m.NumRouters(); d += 5 {
			sx, sy, sz := m.Coords(s)
			dx, dy, dz := m.Coords(d)
			want := abs(sx-dx) + abs(sy-dy) + abs(sz-dz)
			if got := m.Hops(s, d); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPillarMeshRouting(t *testing.T) {
	// Pillars every 2: router (1,1,0) has no vertical link; a layer
	// change detours via pillar (0,0).
	m := NewPillarMesh3D(4, 4, 2, 2)
	src := m.RouterAt(1, 1, 0)
	dst := m.RouterAt(1, 1, 1)
	path := m.Route(src, dst)
	// Detour: (1,1,0)->(0,1,0)->(0,0,0)->(0,0,1)->(0,1,1)->(1,1,1).
	if len(path) != 6 {
		t.Fatalf("pillar route length = %d, want 6: %v", len(path), path)
	}
	// Every step must be a real channel (vertical only at pillars).
	for i := 1; i < len(path); i++ {
		if m.ChannelID(path[i-1], path[i]) < 0 {
			t.Fatalf("pillar route uses missing channel %d -> %d", path[i-1], path[i])
		}
	}
	// Fewer vertical channels than the full mesh.
	full := NewMesh3D(4, 4, 2).ComputeMetrics().VerticalChannels
	sparse := m.ComputeMetrics().VerticalChannels
	if sparse >= full {
		t.Errorf("pillar mesh vertical channels %d not below full %d", sparse, full)
	}
}

func TestMetricsFig7(t *testing.T) {
	// Structural comparison behind Fig. 7 at 64 modules.
	mesh2d := NewMesh2D(8, 8).ComputeMetrics()
	star := NewStarMesh(4, 4, 4).ComputeMetrics()
	mesh3d := NewMesh3D(4, 4, 4).ComputeMetrics()

	// Diameters: 14 (8x8), 6 (4x4), 9 (4x4x4).
	if mesh2d.Diameter != 14 || star.Diameter != 6 || mesh3d.Diameter != 9 {
		t.Errorf("diameters = %d/%d/%d, want 14/6/9",
			mesh2d.Diameter, star.Diameter, mesh3d.Diameter)
	}
	// Average hops over distinct module pairs: 8x8 mesh 16/3; 4x4x4 mesh
	// 3.75 * 4096/4032; star-mesh a bit above 2.5 (same-router module
	// pairs count zero hops but so do fewer of them than self-pairs
	// would).
	if math.Abs(mesh2d.AvgHops-16.0/3) > 1e-9 {
		t.Errorf("2D avg hops = %g, want %g", mesh2d.AvgHops, 16.0/3)
	}
	if math.Abs(mesh3d.AvgHops-3.75*4096/4032) > 1e-9 {
		t.Errorf("3D avg hops = %g, want %g", mesh3d.AvgHops, 3.75*4096/4032)
	}
	if star.AvgHops >= 2.6 || star.AvgHops <= 2.0 {
		t.Errorf("star-mesh avg hops = %g, want in (2.0, 2.6)", star.AvgHops)
	}
	// Bisection: 3D mesh has twice the 2D mesh's cut (32 vs 16 directed),
	// star-mesh only 8.
	if mesh2d.BisectionChannels != 16 || mesh3d.BisectionChannels != 32 || star.BisectionChannels != 8 {
		t.Errorf("bisections = %d/%d/%d, want 16/32/8",
			mesh2d.BisectionChannels, mesh3d.BisectionChannels, star.BisectionChannels)
	}
	// The 3D mesh has only vertical channels between layers.
	if mesh3d.VerticalChannels != 2*3*16 {
		t.Errorf("3D vertical channels = %d, want 96", mesh3d.VerticalChannels)
	}
	if mesh2d.VerticalChannels != 0 {
		t.Error("2D mesh reports vertical channels")
	}
}

func TestUniformTrafficShares(t *testing.T) {
	u := Uniform{}
	n := 64
	var sum float64
	for d := 0; d < n; d++ {
		sum += u.Share(5, d, n)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("uniform shares sum to %g", sum)
	}
	if u.Share(5, 5, n) != 0 {
		t.Error("self-traffic nonzero")
	}
}

func TestHotspotTrafficShares(t *testing.T) {
	h := Hotspot{Module: 0, Fraction: 0.5}
	n := 16
	for _, src := range []int{0, 3, 7} {
		var sum float64
		for d := 0; d < n; d++ {
			sum += h.Share(src, d, n)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("hotspot shares from %d sum to %g", src, sum)
		}
	}
	// Hot destination receives more than a uniform share.
	if h.Share(3, 0, n) <= 1.0/15 {
		t.Error("hotspot share not elevated")
	}
}

func TestHotspotPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad hotspot fraction did not panic")
		}
	}()
	Hotspot{Module: 0, Fraction: 1.5}.Share(1, 0, 4)
}

// Row must write exactly what Share returns for every destination, bit
// for bit, over sizes with no traffic (0, 1 module), odd sizes (whose
// middle bit-complement module is silent) and hot modules at either
// end and at the source itself; sources outside [0, n) included.
func TestRowMatchesShare(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 65, 320} {
		row := make([]float64, n)
		for src := -1; src <= n; src++ {
			patterns := []TrafficPattern{Uniform{}, BitComplement{}}
			for _, hot := range []int{0, n - 1, src} {
				for _, f := range []float64{0, 0.02, 0.3, 1} {
					patterns = append(patterns, Hotspot{Module: hot, Fraction: f})
				}
			}
			for _, p := range patterns {
				for d := range row {
					row[d] = math.NaN() // Row must overwrite every entry
				}
				p.Row(src, row)
				for d, got := range row {
					if want := p.Share(src, d, n); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s n=%d: Row(%d)[%d] = %v, Share = %v", p, n, src, d, got, want)
					}
				}
			}
		}
	}
}

// A hotspot fraction outside [0, 1] makes Share panic for every pair of
// distinct modules, so Row panics whenever the row has two modules, and
// only then.
func TestHotspotRowPanicsLikeShare(t *testing.T) {
	for _, f := range []float64{-0.1, 1.5} {
		h := Hotspot{Module: 0, Fraction: f}
		for _, n := range []int{0, 1, 2, 5} {
			for _, src := range []int{0, 1} {
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					h.Row(src, make([]float64, n))
					return
				}()
				if want := n >= 2; panicked != want {
					t.Errorf("fraction %g, n=%d, src %d: Row panicked %v, want %v", f, n, src, panicked, want)
				}
			}
		}
	}
}

// With an odd module count the middle module is its own complement:
// its shares sum to 0, and it is silent rather than malformed.
func TestBitComplementShares(t *testing.T) {
	b := BitComplement{}
	for _, n := range []int{7, 8} {
		for src := 0; src < n; src++ {
			var sum float64
			for d := 0; d < n; d++ {
				sum += b.Share(src, d, n)
			}
			want := 1.0
			if 2*src == n-1 {
				want = 0
			}
			if sum != want {
				t.Errorf("n=%d: bit-complement shares from %d sum to %g, want %g", n, src, sum, want)
			}
		}
	}
}

// Property: routes are always valid channel sequences of Manhattan length
// on full meshes.
func TestPropertyRoutesValid(t *testing.T) {
	m := NewMesh3D(3, 3, 3)
	f := func(a, b uint8) bool {
		s := int(a) % m.NumRouters()
		d := int(b) % m.NumRouters()
		chans := m.RouteChannels(s, d)
		sx, sy, sz := m.Coords(s)
		dx, dy, dz := m.Coords(d)
		return len(chans) == abs(sx-dx)+abs(sy-dy)+abs(sz-dz)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: traffic shares are a probability distribution for any source.
func TestPropertyTrafficNormalised(t *testing.T) {
	patterns := []TrafficPattern{Uniform{}, Hotspot{Module: 2, Fraction: 0.3}, BitComplement{}}
	f := func(rawSrc uint8) bool {
		n := 32
		src := int(rawSrc) % n
		for _, p := range patterns {
			var sum float64
			for d := 0; d < n; d++ {
				s := p.Share(src, d, n)
				if s < 0 {
					return false
				}
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
