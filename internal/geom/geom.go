// Package geom provides the 2-D geometry kernel used to describe spin-wave
// gate layouts: points, segments, polygons, capsule-shaped waveguide arms,
// and rasterization of shape compositions onto a simulation mesh.
//
// Shapes are represented by the Shape interface (point containment plus a
// bounding box) so that layouts can be composed with Union/Intersect/
// Difference before being rasterized.
package geom

import (
	"fmt"
	"math"

	"spinwave/internal/grid"
)

// Point is a position in the film plane, in meters.
type Point struct {
	X, Y float64
}

// P is shorthand for constructing a Point.
func P(x, y float64) Point { return Point{x, y} }

// Add returns p + q (vector addition).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Norm returns the distance of p from the origin.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dot returns the scalar product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// String formats the point in nanometers for readability.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f) nm", p.X*1e9, p.Y*1e9)
}

// BBox is an axis-aligned bounding box.
type BBox struct {
	Min, Max Point
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	return BBox{
		Min: Point{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// Pad returns the box grown by d on every side.
func (b BBox) Pad(d float64) BBox {
	return BBox{
		Min: Point{b.Min.X - d, b.Min.Y - d},
		Max: Point{b.Max.X + d, b.Max.Y + d},
	}
}

// Width and Height return the box extents.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of the box.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Shape is a region of the plane defined by point membership.
type Shape interface {
	// Contains reports whether point (x, y) lies inside the shape.
	Contains(x, y float64) bool
	// Bounds returns a bounding box of the shape.
	Bounds() BBox
}

// Capsule is a thick line segment: all points within W/2 of segment AB.
// It is the natural primitive for a waveguide arm of width W running from
// A to B, with rounded (naturally overlapping) junction ends.
type Capsule struct {
	A, B Point
	W    float64
}

// Contains implements Shape.
func (c Capsule) Contains(x, y float64) bool {
	return distToSegment(Point{x, y}, c.A, c.B) <= c.W/2
}

// Bounds implements Shape.
func (c Capsule) Bounds() BBox {
	r := c.W / 2
	return BBox{
		Min: Point{math.Min(c.A.X, c.B.X) - r, math.Min(c.A.Y, c.B.Y) - r},
		Max: Point{math.Max(c.A.X, c.B.X) + r, math.Max(c.A.Y, c.B.Y) + r},
	}
}

// Length returns the centerline length |AB|.
func (c Capsule) Length() float64 { return c.A.Dist(c.B) }

// distToSegment returns the distance from p to segment ab.
func distToSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / l2
	t = math.Max(0, math.Min(1, t))
	proj := a.Add(ab.Scale(t))
	return p.Dist(proj)
}

// Rect is an axis-aligned rectangle shape.
type Rect struct {
	Min, Max Point
}

// Contains implements Shape.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.Min.X && x <= r.Max.X && y >= r.Min.Y && y <= r.Max.Y
}

// Bounds implements Shape.
func (r Rect) Bounds() BBox { return BBox{Min: r.Min, Max: r.Max} }

// Circle is a disk of radius R centered at C.
type Circle struct {
	C Point
	R float64
}

// Contains implements Shape.
func (c Circle) Contains(x, y float64) bool {
	return c.C.Dist(Point{x, y}) <= c.R
}

// Bounds implements Shape.
func (c Circle) Bounds() BBox {
	return BBox{
		Min: Point{c.C.X - c.R, c.C.Y - c.R},
		Max: Point{c.C.X + c.R, c.C.Y + c.R},
	}
}

// Polygon is a simple polygon given by its vertices in order. Membership
// uses the even-odd rule; points exactly on an edge are treated as inside
// within floating-point tolerance of the crossing test.
type Polygon struct {
	V []Point
}

// Contains implements Shape using the even-odd ray crossing rule.
func (pg Polygon) Contains(x, y float64) bool {
	n := len(pg.V)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg.V[i], pg.V[j]
		if (vi.Y > y) != (vj.Y > y) {
			xint := vj.X + (y-vj.Y)*(vi.X-vj.X)/(vi.Y-vj.Y)
			if x < xint {
				inside = !inside
			}
		}
	}
	return inside
}

// Bounds implements Shape.
func (pg Polygon) Bounds() BBox {
	if len(pg.V) == 0 {
		return BBox{}
	}
	b := BBox{Min: pg.V[0], Max: pg.V[0]}
	for _, v := range pg.V[1:] {
		b.Min.X = math.Min(b.Min.X, v.X)
		b.Min.Y = math.Min(b.Min.Y, v.Y)
		b.Max.X = math.Max(b.Max.X, v.X)
		b.Max.Y = math.Max(b.Max.Y, v.Y)
	}
	return b
}

// Triangle returns the polygon with vertices a, b, c.
func Triangle(a, b, c Point) Polygon { return Polygon{V: []Point{a, b, c}} }

// union is the set union of shapes.
type union struct{ shapes []Shape }

// Union composes shapes into their set union. Union of zero shapes is the
// empty shape.
func Union(shapes ...Shape) Shape { return union{shapes: shapes} }

func (u union) Contains(x, y float64) bool {
	for _, s := range u.shapes {
		if s.Contains(x, y) {
			return true
		}
	}
	return false
}

func (u union) Bounds() BBox {
	if len(u.shapes) == 0 {
		return BBox{}
	}
	b := u.shapes[0].Bounds()
	for _, s := range u.shapes[1:] {
		b = b.Union(s.Bounds())
	}
	return b
}

// intersection is the set intersection of shapes.
type intersection struct{ shapes []Shape }

// Intersect composes shapes into their set intersection.
func Intersect(shapes ...Shape) Shape { return intersection{shapes: shapes} }

func (n intersection) Contains(x, y float64) bool {
	if len(n.shapes) == 0 {
		return false
	}
	for _, s := range n.shapes {
		if !s.Contains(x, y) {
			return false
		}
	}
	return true
}

func (n intersection) Bounds() BBox {
	if len(n.shapes) == 0 {
		return BBox{}
	}
	return n.shapes[0].Bounds()
}

// difference is a \ b.
type difference struct{ a, b Shape }

// Difference returns the shape a with b removed.
func Difference(a, b Shape) Shape { return difference{a: a, b: b} }

func (d difference) Contains(x, y float64) bool {
	return d.a.Contains(x, y) && !d.b.Contains(x, y)
}

func (d difference) Bounds() BBox { return d.a.Bounds() }

// translate shifts a shape by (dx, dy).
type translate struct {
	s      Shape
	dx, dy float64
}

// Translate returns s shifted by (dx, dy).
func Translate(s Shape, dx, dy float64) Shape { return translate{s: s, dx: dx, dy: dy} }

func (t translate) Contains(x, y float64) bool { return t.s.Contains(x-t.dx, y-t.dy) }

func (t translate) Bounds() BBox {
	b := t.s.Bounds()
	return BBox{
		Min: Point{b.Min.X + t.dx, b.Min.Y + t.dy},
		Max: Point{b.Max.X + t.dx, b.Max.Y + t.dy},
	}
}

// Rasterize marks every mesh cell whose center lies inside the shape.
//
// A union is rasterized member by member, each over the cells of its own
// bounding box (padded by one cell) only, so a gate made of many thin
// waveguide arms costs the arms' area rather than arms × mesh. Membership
// is still decided by each member's Contains, so the region is the same
// cell for cell as testing the whole union at every cell.
func Rasterize(m grid.Mesh, s Shape) grid.Region {
	r := grid.NewRegion(m)
	rasterizeInto(r, m, s, cellRange(m, s.Bounds()))
	return r
}

// cellBox is an inclusive range of mesh cells [I0, I1] × [J0, J1].
type cellBox struct{ I0, J0, I1, J1 int }

// cellRange returns the cells whose centers can lie in box b, clamped to
// the mesh.
func cellRange(m grid.Mesh, b BBox) cellBox {
	i0, j0, ok0 := m.CellAt(math.Max(b.Min.X, 0), math.Max(b.Min.Y, 0))
	if !ok0 {
		i0, j0 = 0, 0
	}
	i1, j1, ok1 := m.CellAt(math.Min(b.Max.X, m.SizeX()-m.Dx/2), math.Min(b.Max.Y, m.SizeY()-m.Dy/2))
	if !ok1 {
		i1, j1 = m.Nx-1, m.Ny-1
	}
	return cellBox{i0, j0, i1, j1}
}

// rasterizeInto sets every cell of c not yet set in r whose center s
// contains. A union recurses into its members, each over the part of c
// its own padded bounding box covers.
func rasterizeInto(r grid.Region, m grid.Mesh, s Shape, c cellBox) {
	if u, ok := s.(union); ok {
		pad := math.Max(m.Dx, m.Dy)
		for _, member := range u.shapes {
			mc := cellRange(m, member.Bounds().Pad(pad))
			mc.I0, mc.J0 = max(mc.I0, c.I0), max(mc.J0, c.J0)
			mc.I1, mc.J1 = min(mc.I1, c.I1), min(mc.J1, c.J1)
			rasterizeInto(r, m, member, mc)
		}
		return
	}
	for j := c.J0; j <= c.J1; j++ {
		row := j * m.Nx
		for i := c.I0; i <= c.I1; i++ {
			if r[row+i] {
				continue
			}
			x, y := m.CellCenter(i, j)
			if s.Contains(x, y) {
				r[row+i] = true
			}
		}
	}
}

// MirrorY returns p reflected about the horizontal line y = axis.
func MirrorY(p Point, axis float64) Point { return Point{p.X, 2*axis - p.Y} }
