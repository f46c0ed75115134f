// Package combi implements the sparse grid combination technique
// (Griebel 1992, the paper's related work [16]): instead of operating on
// the hierarchical sparse grid directly, the sparse grid interpolant is
// assembled from piecewise-multilinear interpolants on a set of small
// anisotropic full "component" grids,
//
//	f_n^c = Σ_{q=0}^{d-1} (-1)^q · C(d-1, q) · Σ_{|ℓ|₁ = n-1-q} f_ℓ ,
//
// with 0-based per-dimension levels ℓ. For pure interpolation the
// combination is exact: it reproduces the direct sparse grid interpolant.
// Its parallelization is trivial (the component solutions are
// independent) — but grid points shared between component grids are
// replicated, which is precisely the memory overhead the paper's compact
// structure avoids (Sec. 7).
package combi

import (
	"fmt"
	"sync"

	"compactsg/internal/core"
	"compactsg/internal/fullgrid"
)

// Component is one anisotropic full grid with its inclusion–exclusion
// coefficient.
type Component struct {
	Levels []int32
	Coeff  float64
	Grid   *fullgrid.Grid
}

// Solution is a combination-technique representation of a function.
type Solution struct {
	dim, level int
	components []Component
}

// New builds the component grid system for dimension dim and refinement
// level (matching core's convention: the direct sparse grid of the same
// level spans level groups 0..level-1). In one dimension the technique
// degenerates to the single full grid of level-1.
func New(dim, level int) (*Solution, error) {
	if dim < 1 {
		return nil, fmt.Errorf("combi: dimension %d out of range", dim)
	}
	if level < 1 {
		return nil, fmt.Errorf("combi: level %d out of range", level)
	}
	s := &Solution{dim: dim, level: level}
	n := level - 1 // top diagonal |ℓ|₁ = n
	l := make([]int32, dim)
	for q := 0; q < dim && q <= n; q++ {
		coeff := float64(sign(q)) * float64(binomial(dim-1, q))
		if coeff == 0 {
			continue
		}
		core.First(l, n-q)
		for {
			g, err := fullgrid.New(l)
			if err != nil {
				return nil, fmt.Errorf("combi: component %v: %w", l, err)
			}
			s.components = append(s.components, Component{
				Levels: append([]int32(nil), l...),
				Coeff:  coeff,
				Grid:   g,
			})
			if core.Next(l) < 0 {
				break
			}
		}
	}
	return s, nil
}

func sign(q int) int {
	if q%2 == 1 {
		return -1
	}
	return 1
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for j := 1; j <= k; j++ {
		r = r * int64(n-k+j) / int64(j)
	}
	return r
}

// Dim returns the dimensionality.
func (s *Solution) Dim() int { return s.dim }

// Level returns the refinement level.
func (s *Solution) Level() int { return s.level }

// Components returns the component grids with their coefficients.
func (s *Solution) Components() []Component { return s.components }

// Fill samples f on every component grid. The components are
// independent, so they are filled concurrently with the given number of
// workers (the "trivial parallelization" of the technique).
func (s *Solution) Fill(f func(x []float64) float64, workers int) {
	if workers <= 1 {
		for _, c := range s.components {
			c.Grid.Fill(f)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, c := range s.components {
		wg.Add(1)
		sem <- struct{}{}
		go func(g *fullgrid.Grid) {
			defer wg.Done()
			g.Fill(f)
			<-sem
		}(c.Grid)
	}
	wg.Wait()
}

// Evaluate interpolates the combination solution at x: the signed sum of
// the component grids' multilinear interpolants.
func (s *Solution) Evaluate(x []float64) float64 {
	res := 0.0
	for _, c := range s.components {
		res += c.Coeff * c.Grid.Interpolate(x)
	}
	return res
}

// TotalPoints returns the number of stored values summed over all
// component grids — including the replicated shared points.
func (s *Solution) TotalPoints() int64 {
	var n int64
	for _, c := range s.components {
		n += c.Grid.Size()
	}
	return n
}

// MemoryBytes returns the total coefficient storage across components.
func (s *Solution) MemoryBytes() int64 { return s.TotalPoints() * 8 }

// ReplicationFactor returns TotalPoints divided by the direct sparse
// grid's point count — the memory overhead of the combination technique
// relative to the compact structure (≥ 1).
func (s *Solution) ReplicationFactor() float64 {
	desc, err := core.NewDescriptor(s.dim, s.level)
	if err != nil {
		return 0
	}
	return float64(s.TotalPoints()) / float64(desc.Size())
}
