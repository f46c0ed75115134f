package compactsg

import (
	"errors"
	"fmt"
)

// SliceSpec describes a 2d axis-aligned slice through the domain for
// visualization (the decompression pattern of the paper's Fig. 1
// application): two free axes sampled on a regular raster, all other
// coordinates pinned.
type SliceSpec struct {
	// AxisX, AxisY are the free dimensions (distinct, in range).
	AxisX, AxisY int
	// NX, NY are the raster resolution (≥ 2); samples sit at cell
	// centers (k+0.5)/N.
	NX, NY int
	// Anchor holds the pinned coordinate for every dimension; the
	// entries at AxisX/AxisY are ignored.
	Anchor []float64
}

// Slice2D decompresses a 2d slice of the compressed grid into a
// row-major NX×NY raster (row y, column x). It uses the grid's
// configured workers.
func (g *Grid) Slice2D(spec SliceSpec) ([]float64, error) {
	if !g.compressed {
		return nil, errors.New("compactsg: Slice2D requires a compressed grid")
	}
	d := g.Dim()
	if spec.AxisX == spec.AxisY || spec.AxisX < 0 || spec.AxisX >= d || spec.AxisY < 0 || spec.AxisY >= d {
		return nil, fmt.Errorf("compactsg: slice axes (%d, %d) invalid for %d dimensions", spec.AxisX, spec.AxisY, d)
	}
	if spec.NX < 2 || spec.NY < 2 {
		return nil, fmt.Errorf("compactsg: raster %d×%d too small", spec.NX, spec.NY)
	}
	if len(spec.Anchor) != d {
		return nil, fmt.Errorf("compactsg: anchor has %d coordinates, grid has %d dimensions", len(spec.Anchor), d)
	}
	xs := make([][]float64, 0, spec.NX*spec.NY)
	flat := make([]float64, spec.NX*spec.NY*d)
	for y := 0; y < spec.NY; y++ {
		cy := (float64(y) + 0.5) / float64(spec.NY)
		for x := 0; x < spec.NX; x++ {
			p := flat[(y*spec.NX+x)*d : (y*spec.NX+x+1)*d : (y*spec.NX+x+1)*d]
			copy(p, spec.Anchor)
			p[spec.AxisX] = (float64(x) + 0.5) / float64(spec.NX)
			p[spec.AxisY] = cy
			xs = append(xs, p)
		}
	}
	return g.EvaluateBatch(xs, nil)
}
