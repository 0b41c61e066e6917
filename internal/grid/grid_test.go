package grid

import (
	"math"
	"testing"
	"testing/quick"

	"spinwave/internal/vec"
)

func TestNewMeshValidation(t *testing.T) {
	cases := []struct {
		nx, ny     int
		dx, dy, dz float64
		ok         bool
	}{
		{10, 20, 1e-9, 1e-9, 1e-9, true},
		{0, 20, 1e-9, 1e-9, 1e-9, false},
		{10, -1, 1e-9, 1e-9, 1e-9, false},
		{10, 20, 0, 1e-9, 1e-9, false},
		{10, 20, 1e-9, -1e-9, 1e-9, false},
		{10, 20, 1e-9, 1e-9, 0, false},
	}
	for _, c := range cases {
		_, err := NewMesh(c.nx, c.ny, c.dx, c.dy, c.dz)
		if (err == nil) != c.ok {
			t.Errorf("NewMesh(%d,%d,%g,%g,%g) err=%v, want ok=%v", c.nx, c.ny, c.dx, c.dy, c.dz, err, c.ok)
		}
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMesh with invalid args did not panic")
		}
	}()
	MustMesh(0, 0, 0, 0, 0)
}

func TestIdxCoordRoundTrip(t *testing.T) {
	m := MustMesh(7, 5, 1e-9, 1e-9, 1e-9)
	for j := 0; j < m.Ny; j++ {
		for i := 0; i < m.Nx; i++ {
			idx := m.Idx(i, j)
			gi, gj := m.Coord(idx)
			if gi != i || gj != j {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", i, j, idx, gi, gj)
			}
		}
	}
}

func TestIdxPanicsOutOfRange(t *testing.T) {
	m := MustMesh(3, 3, 1e-9, 1e-9, 1e-9)
	defer func() {
		if recover() == nil {
			t.Error("Idx out of range did not panic")
		}
	}()
	m.Idx(3, 0)
}

func TestCellCenterAndCellAt(t *testing.T) {
	m := MustMesh(10, 10, 2e-9, 3e-9, 1e-9)
	x, y := m.CellCenter(0, 0)
	if x != 1e-9 || y != 1.5e-9 {
		t.Errorf("CellCenter(0,0) = (%g,%g)", x, y)
	}
	i, j, ok := m.CellAt(x, y)
	if !ok || i != 0 || j != 0 {
		t.Errorf("CellAt(center of 0,0) = (%d,%d,%v)", i, j, ok)
	}
	if _, _, ok := m.CellAt(-1e-9, 0); ok {
		t.Error("CellAt negative x reported ok")
	}
	if _, _, ok := m.CellAt(m.SizeX()+1e-12, 0); ok {
		t.Error("CellAt beyond x reported ok")
	}
}

func TestCellAtCenterRoundTrip(t *testing.T) {
	m := MustMesh(13, 9, 1.5e-9, 2.5e-9, 1e-9)
	f := func(ii, jj uint8) bool {
		i := int(ii) % m.Nx
		j := int(jj) % m.Ny
		x, y := m.CellCenter(i, j)
		gi, gj, ok := m.CellAt(x, y)
		return ok && gi == i && gj == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeshDerived(t *testing.T) {
	m := MustMesh(100, 50, 5e-9, 5e-9, 1e-9)
	if got := m.NCells(); got != 5000 {
		t.Errorf("NCells = %d", got)
	}
	if got := m.SizeX(); math.Abs(got-500e-9) > 1e-18 {
		t.Errorf("SizeX = %g", got)
	}
	if got := m.SizeY(); math.Abs(got-250e-9) > 1e-18 {
		t.Errorf("SizeY = %g", got)
	}
	if got := m.CellVolume(); math.Abs(got-25e-27) > 1e-36 {
		t.Errorf("CellVolume = %g", got)
	}
}

func TestRegionSetOps(t *testing.T) {
	m := MustMesh(4, 1, 1e-9, 1e-9, 1e-9)
	a := Region{true, true, false, false}
	b := Region{false, true, true, false}

	u := a.Clone().Union(b)
	if got := u.Count(); got != 3 {
		t.Errorf("union count = %d", got)
	}
	in := a.Clone().Intersect(b)
	if got := in.Indices(); len(got) != 1 || got[0] != 1 {
		t.Errorf("intersect indices = %v", got)
	}
	d := a.Clone().Subtract(b)
	if got := d.Indices(); len(got) != 1 || got[0] != 0 {
		t.Errorf("subtract indices = %v", got)
	}
	_ = m
}

func TestRegionOpsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Union with mismatched lengths did not panic")
		}
	}()
	Region{true}.Union(Region{true, false})
}

// Property: for random regions, |A∪B| + |A∩B| == |A| + |B|.
func TestInclusionExclusion(t *testing.T) {
	f := func(abits, bbits uint16) bool {
		a := make(Region, 16)
		b := make(Region, 16)
		for i := 0; i < 16; i++ {
			a[i] = abits&(1<<i) != 0
			b[i] = bbits&(1<<i) != 0
		}
		u := a.Clone().Union(b).Count()
		n := a.Clone().Intersect(b).Count()
		return u+n == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFullRegionAndBounds(t *testing.T) {
	m := MustMesh(6, 4, 1e-9, 1e-9, 1e-9)
	full := FullRegion(m)
	if got := full.Count(); got != 24 {
		t.Errorf("FullRegion count = %d", got)
	}
	i0, j0, i1, j1, ok := full.Bounds(m)
	if !ok || i0 != 0 || j0 != 0 || i1 != 5 || j1 != 3 {
		t.Errorf("Bounds = (%d,%d,%d,%d,%v)", i0, j0, i1, j1, ok)
	}
	empty := NewRegion(m)
	if _, _, _, _, ok := empty.Bounds(m); ok {
		t.Error("empty region reported bounds")
	}
}

func TestRectRegion(t *testing.T) {
	m := MustMesh(10, 10, 1e-9, 1e-9, 1e-9)
	// Rectangle covering cells i in [2,4], j in [3,5] by center position.
	r := RectRegion(m, 2e-9, 3e-9, 5e-9, 6e-9)
	if got := r.Count(); got != 9 {
		t.Errorf("RectRegion count = %d, want 9", got)
	}
	for _, idx := range r.Indices() {
		i, j := m.Coord(idx)
		if i < 2 || i > 4 || j < 3 || j > 5 {
			t.Errorf("unexpected cell (%d,%d) in rect region", i, j)
		}
	}
}

func TestAverageOver(t *testing.T) {
	f := vec.Field{vec.V(1, 0, 0), vec.V(3, 0, 0)}
	r := Region{true, true}
	if got := r.AverageOver(f); got.X != 2 {
		t.Errorf("AverageOver = %v", got)
	}
	empty := Region{false, false}
	if got := empty.AverageOver(f); got != vec.Zero {
		t.Errorf("AverageOver empty = %v", got)
	}
}

func TestEdgeBand(t *testing.T) {
	m := MustMesh(10, 10, 1e-9, 1e-9, 1e-9)
	mask := FullRegion(m)
	band := EdgeBand(m, mask, 2e-9)
	// Interior cells i,j in [2,7] have centers >= 2.5e-9 from every edge.
	for _, idx := range band.Indices() {
		i, j := m.Coord(idx)
		if i >= 2 && i <= 7 && j >= 2 && j <= 7 {
			t.Errorf("interior cell (%d,%d) in edge band", i, j)
		}
	}
	if band.Count() == 0 {
		t.Error("edge band empty")
	}
	// A band request on an empty mask yields an empty band.
	if got := EdgeBand(m, NewRegion(m), 2e-9).Count(); got != 0 {
		t.Errorf("EdgeBand on empty mask count = %d", got)
	}
}

// TestDiscCellsMatchesFullScan checks the bounding-box disc scan against
// a whole-mesh scan: same cells, same row-major order, for discs inside,
// straddling and outside the mesh, radii landing exactly on cell centers,
// and non-finite inputs.
func TestDiscCellsMatchesFullScan(t *testing.T) {
	m := MustMesh(23, 17, 1, 0.5, 1) // binary-exact cell sizes
	r := NewRegion(m)
	for i := range r {
		r[i] = i%7 != 3 // holes, so the region mask matters
	}
	fullScan := func(cx, cy, radius float64) []int {
		var cells []int
		for j := 0; j < m.Ny; j++ {
			for i := 0; i < m.Nx; i++ {
				idx := m.Idx(i, j)
				x, y := m.CellCenter(i, j)
				if r[idx] && math.Hypot(x-cx, y-cy) <= radius {
					cells = append(cells, idx)
				}
			}
		}
		return cells
	}
	x0, y0 := m.CellCenter(4, 6)
	type disc struct{ cx, cy, radius float64 }
	discs := []disc{
		{x0, y0, 2 * m.Dx},          // passes exactly through the centers of cells (2,6) and (6,6)
		{x0, y0, 0},                 // one center
		{x0 + 0.02, y0, 1.5 * m.Dx}, // off-center
		{0, 0, 3 * m.Dx},            // mesh corner
		{m.SizeX(), m.SizeY() / 2, 0.8},
		{-4, y0, 6},     // center off the mesh, disc reaching in
		{-100, -100, 1}, // far off the mesh
		{x0, y0, 100},   // covers the whole mesh
		{x0, y0, -1},
		{math.NaN(), y0, 2},
		{x0, y0, math.NaN()},
		{math.Inf(1), y0, 2},
		{x0, math.Inf(-1), 2},
		{x0, y0, math.Inf(1)},
	}
	for k := 0; k < 200; k++ {
		discs = append(discs, disc{
			(float64(k%31)/30*1.4 - 0.2) * m.SizeX(),
			(float64(k%13)/12*1.4 - 0.2) * m.SizeY(),
			float64(k%9) * 0.5,
		})
	}
	for _, d := range discs {
		got, want := r.DiscCells(m, d.cx, d.cy, d.radius), fullScan(d.cx, d.cy, d.radius)
		if len(got) != len(want) {
			t.Errorf("disc %+v: %d cells, full scan %d", d, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("disc %+v: cell %d is %d, full scan %d", d, i, got[i], want[i])
				break
			}
		}
	}
}
