// Package grid defines the finite-difference simulation mesh and cell
// region bookkeeping used by the micromagnetic solver.
//
// The solver works on a 2-D mesh of Nx×Ny cells in the film plane; the film
// thickness Dz is carried as a scalar because the paper's waveguide is a
// 1 nm film with uniform magnetization across the thickness. Cells are
// addressed either by (i, j) pair (i along x, j along y) or by flat index
// j*Nx + i, the layout used by all field arrays.
package grid

import (
	"fmt"
	"math"

	"spinwave/internal/vec"
)

// Mesh describes the discretization of the simulation window.
type Mesh struct {
	Nx, Ny int     // cell counts along x and y
	Dx, Dy float64 // cell edge lengths in meters
	Dz     float64 // film thickness in meters
}

// NewMesh validates the parameters and returns a mesh value.
func NewMesh(nx, ny int, dx, dy, dz float64) (Mesh, error) {
	if nx <= 0 || ny <= 0 {
		return Mesh{}, fmt.Errorf("grid: mesh size %dx%d must be positive", nx, ny)
	}
	if dx <= 0 || dy <= 0 || dz <= 0 {
		return Mesh{}, fmt.Errorf("grid: cell size (%g, %g, %g) must be positive", dx, dy, dz)
	}
	return Mesh{Nx: nx, Ny: ny, Dx: dx, Dy: dy, Dz: dz}, nil
}

// MustMesh is like NewMesh but panics on invalid parameters. It is intended
// for tests and for configurations built from compile-time constants.
func MustMesh(nx, ny int, dx, dy, dz float64) Mesh {
	m, err := NewMesh(nx, ny, dx, dy, dz)
	if err != nil {
		panic(err)
	}
	return m
}

// NCells returns the total number of cells Nx·Ny.
func (m Mesh) NCells() int { return m.Nx * m.Ny }

// Idx returns the flat index of cell (i, j). It panics if the coordinates
// are out of range, which in the solver indicates a programming error
// rather than a recoverable condition.
func (m Mesh) Idx(i, j int) int {
	if i < 0 || i >= m.Nx || j < 0 || j >= m.Ny {
		panic(fmt.Sprintf("grid: cell (%d,%d) outside %dx%d mesh", i, j, m.Nx, m.Ny))
	}
	return j*m.Nx + i
}

// Coord returns the (i, j) coordinates of flat index idx.
func (m Mesh) Coord(idx int) (i, j int) {
	return idx % m.Nx, idx / m.Nx
}

// CellCenter returns the physical position of the center of cell (i, j),
// with the mesh origin at the corner of cell (0, 0).
func (m Mesh) CellCenter(i, j int) (x, y float64) {
	return (float64(i) + 0.5) * m.Dx, (float64(j) + 0.5) * m.Dy
}

// CellAt returns the cell containing physical point (x, y) and whether the
// point lies inside the mesh bounds.
func (m Mesh) CellAt(x, y float64) (i, j int, ok bool) {
	i = int(x / m.Dx)
	j = int(y / m.Dy)
	if x < 0 || y < 0 || i >= m.Nx || j >= m.Ny {
		return 0, 0, false
	}
	return i, j, true
}

// SizeX and SizeY return the physical extents of the mesh.
func (m Mesh) SizeX() float64 { return float64(m.Nx) * m.Dx }

// SizeY returns the physical extent of the mesh along y.
func (m Mesh) SizeY() float64 { return float64(m.Ny) * m.Dy }

// CellVolume returns Dx·Dy·Dz in m³.
func (m Mesh) CellVolume() float64 { return m.Dx * m.Dy * m.Dz }

// String describes the mesh compactly.
func (m Mesh) String() string {
	return fmt.Sprintf("mesh %dx%d cells, cell %.3gx%.3gx%.3g m", m.Nx, m.Ny, m.Dx, m.Dy, m.Dz)
}

// Region is a boolean mask over mesh cells: true marks cells that contain
// magnetic material (or, for probe/antenna regions, cells that belong to
// the region). Its length always equals Mesh.NCells().
type Region []bool

// NewRegion allocates an empty (all-false) region for the mesh.
func NewRegion(m Mesh) Region { return make(Region, m.NCells()) }

// FullRegion allocates a region with every cell set.
func FullRegion(m Mesh) Region {
	r := NewRegion(m)
	for i := range r {
		r[i] = true
	}
	return r
}

// Count returns the number of set cells.
func (r Region) Count() int {
	n := 0
	for _, b := range r {
		if b {
			n++
		}
	}
	return n
}

// Indices returns the flat indices of all set cells in ascending order.
func (r Region) Indices() []int {
	idx := make([]int, 0, r.Count())
	for i, b := range r {
		if b {
			idx = append(idx, i)
		}
	}
	return idx
}

// Union sets r to r ∪ o in place and returns r.
func (r Region) Union(o Region) Region {
	checkLen(r, o)
	for i := range r {
		r[i] = r[i] || o[i]
	}
	return r
}

// Intersect sets r to r ∩ o in place and returns r.
func (r Region) Intersect(o Region) Region {
	checkLen(r, o)
	for i := range r {
		r[i] = r[i] && o[i]
	}
	return r
}

// Subtract clears from r every cell set in o, in place, and returns r.
func (r Region) Subtract(o Region) Region {
	checkLen(r, o)
	for i := range r {
		r[i] = r[i] && !o[i]
	}
	return r
}

// Clone returns an independent copy of r.
func (r Region) Clone() Region {
	c := make(Region, len(r))
	copy(c, r)
	return c
}

func checkLen(a, b Region) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("grid: region length mismatch %d != %d", len(a), len(b)))
	}
}

// Bounds returns the inclusive bounding box (i0, j0)–(i1, j1) of the set
// cells. ok is false when the region is empty.
func (r Region) Bounds(m Mesh) (i0, j0, i1, j1 int, ok bool) {
	i0, j0 = m.Nx, m.Ny
	i1, j1 = -1, -1
	for idx, b := range r {
		if !b {
			continue
		}
		i, j := m.Coord(idx)
		if i < i0 {
			i0 = i
		}
		if j < j0 {
			j0 = j
		}
		if i > i1 {
			i1 = i
		}
		if j > j1 {
			j1 = j
		}
	}
	return i0, j0, i1, j1, i1 >= 0
}

// AverageOver returns the mean of field f over the set cells of r.
func (r Region) AverageOver(f vec.Field) vec.Vector {
	if len(r) != len(f) {
		panic(fmt.Sprintf("grid: region/field length mismatch %d != %d", len(r), len(f)))
	}
	var sum vec.Vector
	n := 0
	for i, b := range r {
		if b {
			sum = sum.Add(f[i])
			n++
		}
	}
	if n == 0 {
		return vec.Zero
	}
	return sum.Scale(1 / float64(n))
}

// RectRegion returns the region of cells whose centers lie inside the
// axis-aligned rectangle [x0,x1]×[y0,y1] (meters).
func RectRegion(m Mesh, x0, y0, x1, y1 float64) Region {
	r := NewRegion(m)
	for j := 0; j < m.Ny; j++ {
		for i := 0; i < m.Nx; i++ {
			x, y := m.CellCenter(i, j)
			if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				r[m.Idx(i, j)] = true
			}
		}
	}
	return r
}

// DiscCells returns the flat indices of the set cells of r whose centers
// lie within radius of (cx, cy), in ascending (row-major) order — the
// cells of an antenna or detector disc. Only the disc's bounding box,
// padded by one cell, is scanned.
func (r Region) DiscCells(m Mesh, cx, cy, radius float64) []int {
	if !(radius >= 0) {
		return nil
	}
	span := func(c, d float64, n int) (lo, hi int) {
		l := math.Max(0, math.Floor((c-radius)/d)-1)
		h := math.Min(float64(n-1), math.Ceil((c+radius)/d))
		if !(l <= h) { // disc off the mesh, or a non-finite center
			return 0, -1
		}
		return int(l), int(h)
	}
	i0, i1 := span(cx, m.Dx, m.Nx)
	j0, j1 := span(cy, m.Dy, m.Ny)
	var cells []int
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			idx := j*m.Nx + i
			if !r[idx] {
				continue
			}
			x, y := m.CellCenter(i, j)
			if math.Hypot(x-cx, y-cy) <= radius {
				cells = append(cells, idx)
			}
		}
	}
	return cells
}

// EdgeBand returns the region of set cells of mask lying within width
// meters of the mesh boundary. It is used to build absorbing boundary
// layers.
func EdgeBand(m Mesh, mask Region, width float64) Region {
	r := NewRegion(m)
	for j := 0; j < m.Ny; j++ {
		for i := 0; i < m.Nx; i++ {
			idx := m.Idx(i, j)
			if !mask[idx] {
				continue
			}
			x, y := m.CellCenter(i, j)
			if x < width || y < width || m.SizeX()-x < width || m.SizeY()-y < width {
				r[idx] = true
			}
		}
	}
	return r
}
