package layout

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"spinwave/internal/grid"
)

// gateCase is one gate × spec pair as the micromagnetic backend builds
// it: cell size λ/11, mirror axis snapped onto a cell-center row.
type gateCase struct {
	name string
	l    *Layout
	mesh grid.Mesh
}

func gateCases(t testing.TB) []gateCase {
	t.Helper()
	builders := []struct {
		name  string
		build func(Spec) (*Layout, error)
	}{
		{"maj3", func(s Spec) (*Layout, error) { return BuildMAJ3(s, false) }},
		{"maj3single", func(s Spec) (*Layout, error) { return BuildMAJ3(s, true) }},
		{"xor", BuildXOR},
		{"maj5", BuildMAJ5},
	}
	specs := []struct {
		name string
		spec Spec
	}{
		{"paper", PaperSpec()},
		{"paper-micromag", PaperMicromagSpec()},
		{"reduced", ReducedSpec()},
	}
	var out []gateCase
	for _, b := range builders {
		for _, s := range specs {
			l, err := b.build(s.spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, s.name, err)
			}
			dx := s.spec.Lambda / 11
			l.AlignAxisToCells(dx)
			mesh, err := l.Mesh(dx, 1e-9)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, s.name, err)
			}
			out = append(out, gateCase{b.name + "/" + s.name, l, mesh})
		}
	}
	return out
}

// bruteForceRegion tests the whole layout shape at every mesh cell.
func bruteForceRegion(l *Layout, m grid.Mesh) grid.Region {
	s := l.Shape()
	r := grid.NewRegion(m)
	for j := 0; j < m.Ny; j++ {
		for i := 0; i < m.Nx; i++ {
			x, y := m.CellCenter(i, j)
			r[m.Idx(i, j)] = s.Contains(x, y)
		}
	}
	return r
}

// regionDigest is a short hash of a region's cell bits.
func regionDigest(r grid.Region) string {
	b := make([]byte, len(r))
	for i, set := range r {
		if set {
			b[i] = 1
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// seedRegions pins the region of every gate × spec as the original
// whole-mesh rasterizer produced it (cell count and digest of the bits).
// The Tables I/II goldens depend on these exact cells.
var seedRegions = map[string]struct {
	cells  int
	digest string
}{
	"maj3/paper":                {6497, "6f2831bcc7bb46d4"},
	"maj3/paper-micromag":       {3242, "30ec8293ca59988a"},
	"maj3/reduced":              {1558, "e29492e59a28255b"},
	"maj3single/paper":          {5175, "95066cc1e244210e"},
	"maj3single/paper-micromag": {2464, "656485e7bd2e0e87"},
	"maj3single/reduced":        {1103, "b8ff6fc93d4fac6a"},
	"xor/paper":                 {3920, "135b193a278874ab"},
	"xor/paper-micromag":        {1942, "be38150864e532eb"},
	"xor/reduced":               {1178, "4cc5a8ae0e8e20f7"},
	"maj5/paper":                {7656, "29640de3a145a953"},
	"maj5/paper-micromag":       {3858, "368a5fdb41fbc8e0"},
	"maj5/reduced":              {1844, "336c9d7d47d815e9"},
}

// TestRasterizeMatchesBruteForce is the rasterizer's property test: for
// every gate and spec, the per-arm rasterization equals testing every
// arm at every cell, bit for bit, and matches the pinned seed region.
func TestRasterizeMatchesBruteForce(t *testing.T) {
	for _, gc := range gateCases(t) {
		got := gc.l.Rasterize(gc.mesh)
		want := bruteForceRegion(gc.l, gc.mesh)
		diff := 0
		for i := range want {
			if got[i] != want[i] {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("%s: %d of %d cells differ from the brute-force region", gc.name, diff, len(want))
		}
		seed, ok := seedRegions[gc.name]
		if !ok {
			t.Errorf("%s: no pinned seed region", gc.name)
			continue
		}
		if n, d := got.Count(), regionDigest(got); n != seed.cells || d != seed.digest {
			t.Errorf("%s: region %d cells digest %s, seed %d cells digest %s", gc.name, n, d, seed.cells, seed.digest)
		}
	}
}

// TestDiscCellsMatchesFullScan checks grid.DiscCells against the
// whole-mesh scan it replaced, on every input antenna and output
// detector disc of every gate and spec, cell for cell and in order.
func TestDiscCellsMatchesFullScan(t *testing.T) {
	for _, gc := range gateCases(t) {
		region := gc.l.Rasterize(gc.mesh)
		rAnt := math.Max(gc.l.Width/2, 1.5*gc.mesh.Dx)
		nodes := append(gc.l.Inputs(), gc.l.Outputs()...)
		for _, ni := range nodes {
			n := gc.l.Nodes[ni]
			var want []int
			for j := 0; j < gc.mesh.Ny; j++ {
				for i := 0; i < gc.mesh.Nx; i++ {
					idx := gc.mesh.Idx(i, j)
					x, y := gc.mesh.CellCenter(i, j)
					if region[idx] && math.Hypot(x-n.Pos.X, y-n.Pos.Y) <= rAnt {
						want = append(want, idx)
					}
				}
			}
			got := region.DiscCells(gc.mesh, n.Pos.X, n.Pos.Y, rAnt)
			if len(want) == 0 || len(got) != len(want) {
				t.Errorf("%s %s: %d cells, full scan %d", gc.name, n.Name, len(got), len(want))
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("%s %s: cell %d is %d, full scan %d", gc.name, n.Name, k, got[k], want[k])
					break
				}
			}
		}
	}
}
