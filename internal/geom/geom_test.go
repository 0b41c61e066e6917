package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spinwave/internal/grid"
)

func TestPointOps(t *testing.T) {
	p, q := P(1, 2), P(3, -1)
	if got := p.Add(q); got != P(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != P(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != P(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := P(0, 0).Dist(P(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := P(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestCapsuleContains(t *testing.T) {
	c := Capsule{A: P(0, 0), B: P(10, 0), W: 2}
	cases := []struct {
		x, y float64
		in   bool
	}{
		{5, 0, true},
		{5, 0.99, true},
		{5, 1.01, false},
		{-0.5, 0, true},   // inside rounded cap
		{-1.01, 0, false}, // beyond cap
		{10.9, 0.2, true},
		{11.5, 0, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.x, tc.y); got != tc.in {
			t.Errorf("Contains(%g,%g) = %v, want %v", tc.x, tc.y, got, tc.in)
		}
	}
	if got := c.Length(); got != 10 {
		t.Errorf("Length = %v", got)
	}
}

func TestCapsuleDegenerate(t *testing.T) {
	// Zero-length capsule degrades to a disk.
	c := Capsule{A: P(1, 1), B: P(1, 1), W: 4}
	if !c.Contains(1, 2.9) {
		t.Error("point inside degenerate capsule reported outside")
	}
	if c.Contains(1, 3.1) {
		t.Error("point outside degenerate capsule reported inside")
	}
}

func TestCapsuleBounds(t *testing.T) {
	c := Capsule{A: P(0, 0), B: P(10, 5), W: 2}
	b := c.Bounds()
	if b.Min != P(-1, -1) || b.Max != P(11, 6) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestRectCircle(t *testing.T) {
	r := Rect{Min: P(0, 0), Max: P(2, 1)}
	if !r.Contains(1, 0.5) || r.Contains(3, 0.5) || r.Contains(1, -0.1) {
		t.Error("Rect.Contains wrong")
	}
	c := Circle{C: P(0, 0), R: 1}
	if !c.Contains(0.7, 0.7) || c.Contains(0.8, 0.8) {
		t.Error("Circle.Contains wrong")
	}
	cb := c.Bounds()
	if cb.Min != P(-1, -1) || cb.Max != P(1, 1) {
		t.Errorf("Circle.Bounds = %+v", cb)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := Triangle(P(0, 0), P(4, 0), P(0, 4))
	if !tri.Contains(1, 1) {
		t.Error("interior point reported outside triangle")
	}
	if tri.Contains(3, 3) {
		t.Error("exterior point reported inside triangle")
	}
	if (Polygon{V: []Point{P(0, 0), P(1, 1)}}).Contains(0.5, 0.5) {
		t.Error("degenerate 2-vertex polygon contains a point")
	}
	b := tri.Bounds()
	if b.Min != P(0, 0) || b.Max != P(4, 4) {
		t.Errorf("triangle bounds = %+v", b)
	}
	if got := (Polygon{}).Bounds(); got != (BBox{}) {
		t.Errorf("empty polygon bounds = %+v", got)
	}
}

// Property: points strictly inside the triangle by barycentric construction
// are reported inside.
func TestPolygonBarycentricProperty(t *testing.T) {
	tri := Triangle(P(0, 0), P(10, 0), P(2, 8))
	f := func(u, v float64) bool {
		// Map arbitrary floats into (0,1) weights bounded away from edges.
		a := 0.05 + 0.9*frac(u)
		b := 0.05 + 0.9*frac(v)
		if a+b >= 0.98 {
			return true
		}
		c := 1 - a - b
		x := a*0 + b*10 + c*2
		y := a*0 + b*0 + c*8
		return tri.Contains(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	f := math.Abs(x - math.Trunc(x))
	return f
}

func TestComposites(t *testing.T) {
	a := Rect{Min: P(0, 0), Max: P(2, 2)}
	b := Rect{Min: P(1, 1), Max: P(3, 3)}
	u := Union(a, b)
	if !u.Contains(0.5, 0.5) || !u.Contains(2.5, 2.5) || u.Contains(2.5, 0.5) {
		t.Error("Union membership wrong")
	}
	n := Intersect(a, b)
	if !n.Contains(1.5, 1.5) || n.Contains(0.5, 0.5) {
		t.Error("Intersect membership wrong")
	}
	d := Difference(a, b)
	if !d.Contains(0.5, 0.5) || d.Contains(1.5, 1.5) {
		t.Error("Difference membership wrong")
	}
	if Union().Contains(0, 0) {
		t.Error("empty union contains a point")
	}
	if Intersect().Contains(0, 0) {
		t.Error("empty intersection contains a point")
	}
	ub := u.Bounds()
	if ub.Min != P(0, 0) || ub.Max != P(3, 3) {
		t.Errorf("union bounds = %+v", ub)
	}
}

func TestTranslate(t *testing.T) {
	c := Circle{C: P(0, 0), R: 1}
	s := Translate(c, 5, 5)
	if !s.Contains(5.5, 5) || s.Contains(0, 0) {
		t.Error("Translate membership wrong")
	}
	b := s.Bounds()
	if b.Min != P(4, 4) || b.Max != P(6, 6) {
		t.Errorf("Translate bounds = %+v", b)
	}
}

func TestBBoxHelpers(t *testing.T) {
	b := BBox{Min: P(0, 0), Max: P(2, 1)}
	if b.Width() != 2 || b.Height() != 1 {
		t.Errorf("Width/Height = %v/%v", b.Width(), b.Height())
	}
	p := b.Pad(0.5)
	if p.Min != P(-0.5, -0.5) || p.Max != P(2.5, 1.5) {
		t.Errorf("Pad = %+v", p)
	}
}

func TestRasterizeRect(t *testing.T) {
	m := grid.MustMesh(10, 10, 1e-9, 1e-9, 1e-9)
	// Rect covering centers of cells i in [2,4], j in [1,2].
	r := Rasterize(m, Rect{Min: P(2e-9, 1e-9), Max: P(5e-9, 3e-9)})
	if got := r.Count(); got != 6 {
		t.Errorf("rasterized count = %d, want 6", got)
	}
}

func TestRasterizeCapsuleStrip(t *testing.T) {
	m := grid.MustMesh(40, 10, 1e-9, 1e-9, 1e-9)
	// Horizontal waveguide of width 4 nm along the mesh center.
	c := Capsule{A: P(0, 5e-9), B: P(40e-9, 5e-9), W: 4e-9}
	r := Rasterize(m, c)
	if r.Count() == 0 {
		t.Fatal("capsule rasterized to zero cells")
	}
	// Every set cell must be within W/2 of the centerline.
	for _, idx := range r.Indices() {
		i, j := m.Coord(idx)
		_, y := m.CellCenter(i, j)
		if math.Abs(y-5e-9) > 2e-9 {
			t.Errorf("cell (%d,%d) outside waveguide width", i, j)
		}
	}
}

func TestRasterizeOutOfMesh(t *testing.T) {
	m := grid.MustMesh(10, 10, 1e-9, 1e-9, 1e-9)
	// Shape entirely outside the mesh: nothing should be set, no panic.
	r := Rasterize(m, Circle{C: P(-50e-9, -50e-9), R: 1e-9})
	if got := r.Count(); got != 0 {
		t.Errorf("out-of-mesh rasterize count = %d", got)
	}
	// Shape larger than the mesh: clamp to mesh bounds.
	r = Rasterize(m, Rect{Min: P(-1, -1), Max: P(1, 1)})
	if got := r.Count(); got != 100 {
		t.Errorf("oversized rasterize count = %d, want 100", got)
	}
}

func TestMirrorY(t *testing.T) {
	if got := MirrorY(P(3, 1), 2); got != P(3, 3) {
		t.Errorf("MirrorY = %v", got)
	}
}

// wholeMeshRegion is the reference rasterizer: s tested at every cell.
func wholeMeshRegion(m grid.Mesh, s Shape) grid.Region {
	r := grid.NewRegion(m)
	for j := 0; j < m.Ny; j++ {
		for i := 0; i < m.Nx; i++ {
			x, y := m.CellCenter(i, j)
			r[m.Idx(i, j)] = s.Contains(x, y)
		}
	}
	return r
}

// TestRasterizeUnionMatchesWholeMesh is the property behind per-member
// union rasterization: for random capsule unions — arms whose edges pass
// exactly W/2 from rows and columns of cell centers, diagonal arms, arms
// leaving the mesh, degenerate arms, nested unions and non-capsule
// members — the region equals testing the whole union at every cell.
func TestRasterizeUnionMatchesWholeMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		dx := []float64{1, 0.5, 5e-9, 55e-9 / 11}[trial%4]
		m := grid.MustMesh(8+rng.Intn(40), 8+rng.Intn(40), dx, dx, dx)
		center := func() float64 { return (float64(rng.Intn(m.Nx)) + 0.5) * dx }
		var shapes []Shape
		for k := 0; k < 1+rng.Intn(10); k++ {
			w := float64(1+rng.Intn(6)) * dx
			switch rng.Intn(5) {
			case 0: // horizontal arm whose edge passes exactly through a center row
				y := (float64(rng.Intn(m.Ny))+0.5)*dx + w/2
				shapes = append(shapes, Capsule{A: P(center(), y), B: P(center(), y), W: w})
			case 1: // vertical arm whose edge passes exactly through a center column
				x := (float64(rng.Intn(m.Nx))+0.5)*dx - w/2
				shapes = append(shapes, Capsule{A: P(x, center()), B: P(x, center()+3*dx), W: w})
			case 2: // arbitrary arm, possibly reaching past the mesh edges
				p := func() Point {
					return P((rng.Float64()*1.4-0.2)*m.SizeX(), (rng.Float64()*1.4-0.2)*m.SizeY())
				}
				shapes = append(shapes, Capsule{A: p(), B: p(), W: w})
			case 3: // degenerate arm on a cell center: a disc of radius W/2
				c := P(center(), center())
				shapes = append(shapes, Capsule{A: c, B: c, W: w})
			default: // nested union with non-capsule members
				c := P(center(), center())
				shapes = append(shapes, Union(
					Circle{C: c, R: w},
					Translate(Rect{Min: P(0, 0), Max: P(w, 2*w)}, c.X, c.Y),
				))
			}
		}
		u := Union(shapes...)
		got, want := Rasterize(m, u), wholeMeshRegion(m, u)
		for i := range want {
			if got[i] != want[i] {
				ci, cj := m.Coord(i)
				t.Fatalf("trial %d: cell (%d,%d) rasterized %v, whole-mesh test %v", trial, ci, cj, got[i], want[i])
			}
		}
	}
}
