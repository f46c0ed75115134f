package compactsg

import (
	"fmt"

	"compactsg/internal/adaptive"
)

// AdaptiveGrid is a spatially adaptive sparse grid: instead of the fixed
// regular point set of Grid, it grows points where the target function's
// hierarchical surpluses are large, so it resolves localized features
// with far fewer points. This is the flexibility the paper's compact
// layout trades away (Sec. 7); the adaptive grid keeps the layout
// anyway. Points are keyed by gp2idx within an enclosing regular grid of
// MaxLevel, and the grid stores the prefix of that grid's coefficient
// array up to its deepest level group, with zero where no point is
// committed: it pays for the whole prefix rather than per point.
type AdaptiveGrid struct {
	g *adaptive.Grid
}

// NewAdaptive creates an adaptive grid for f, seeded with the regular
// grid of initialLevel and refinable down to maxLevel.
func NewAdaptive(dim, initialLevel, maxLevel int, f func(x []float64) float64) (*AdaptiveGrid, error) {
	g, err := adaptive.New(dim, initialLevel, maxLevel, f)
	if err != nil {
		return nil, err
	}
	return &AdaptiveGrid{g: g}, nil
}

// Dim returns the dimensionality.
func (a *AdaptiveGrid) Dim() int { return a.g.Dim() }

// Points returns the current number of grid points.
func (a *AdaptiveGrid) Points() int { return a.g.Points() }

// MemoryBytes returns the bytes the grid's prefix holds: 8 for the
// surplus and 1 for the state byte of every slot.
func (a *AdaptiveGrid) MemoryBytes() int64 { return a.g.MemoryBytes() }

// Refine inserts children of points whose |surplus| exceeds eps, at most
// maxNew new points, and returns the number added (0 = converged).
func (a *AdaptiveGrid) Refine(eps float64, maxNew int) int { return a.g.Refine(eps, maxNew) }

// RefineToTolerance refines until the largest refinable surplus is below
// eps or the point budget is exhausted; it returns the final point count.
func (a *AdaptiveGrid) RefineToTolerance(eps float64, maxPoints int) int {
	for a.g.Points() < maxPoints {
		budget := maxPoints - a.g.Points()
		if a.g.Refine(eps, budget) == 0 {
			break
		}
	}
	return a.g.Points()
}

// Coarsen removes leaf points with |surplus| ≤ eps (the inverse of
// Refine); it returns the number removed and the L∞ error bound of the
// removal.
func (a *AdaptiveGrid) Coarsen(eps float64) (removed int, errorBound float64) {
	return a.g.Coarsen(eps)
}

// Evaluate interpolates at x ∈ [0,1]^d.
func (a *AdaptiveGrid) Evaluate(x []float64) (float64, error) {
	if len(x) != a.g.Dim() {
		return 0, fmt.Errorf("compactsg: point has %d coordinates, grid has %d dimensions", len(x), a.g.Dim())
	}
	return a.g.Evaluate(x), nil
}

// RefineStats is the detailed outcome of one refinement step.
type RefineStats = adaptive.RefineStats

// NewAdaptiveObserved creates an adaptive grid with no captive target
// function: values arrive through Observe instead of being sampled.
// This is the online-steering mode — the caller measures (simulates,
// benchmarks, queries) f at the points NeedValues asks for, feeds the
// results back, and the surplus/commit machinery stays exact.
func NewAdaptiveObserved(dim, initialLevel, maxLevel int) (*AdaptiveGrid, error) {
	g, err := adaptive.NewObserved(dim, initialLevel, maxLevel)
	if err != nil {
		return nil, err
	}
	return &AdaptiveGrid{g: g}, nil
}

// Observed reports whether the grid is in observation-fed mode.
func (a *AdaptiveGrid) Observed() bool { return a.g.Observed() }

// Observe records y = f(x) at a lattice point x of the enclosing
// sparse grid, inserting the point (with its closure ancestors) if
// new. Only valid on observed grids.
func (a *AdaptiveGrid) Observe(x []float64, y float64) error { return a.g.Observe(x, y) }

// ObserveBatch records a batch of observations, skipping invalid
// points instead of aborting; it returns how many applied and how many
// were rejected (err describes the first rejection).
func (a *AdaptiveGrid) ObserveBatch(xs [][]float64, ys []float64) (applied, rejected int, err error) {
	return a.g.ObserveBatch(xs, ys)
}

// NeedValues lists up to limit coordinates (coarsest first) whose
// values the grid is waiting on before more surpluses can commit.
func (a *AdaptiveGrid) NeedValues(limit int) [][]float64 { return a.g.NeedValues(limit) }

// Commit converts pending observations whose ancestors are all
// committed into hierarchical surpluses; it returns how many committed.
func (a *AdaptiveGrid) Commit() int { return a.g.Commit() }

// RefineDetailed is Refine with the full outcome: points added,
// candidates considered, candidates dropped at the level cap, and
// observations committed beforehand.
func (a *AdaptiveGrid) RefineDetailed(eps float64, maxNew int) RefineStats {
	return a.g.RefineDetailed(eps, maxNew)
}

// CappedTotal returns how many refinement candidates have ever been
// dropped because their children would exceed MaxLevel — the silent
// truncation signal: a nonzero value means eps-convergence was
// declared against a level-limited basis.
func (a *AdaptiveGrid) CappedTotal() int { return a.g.CappedTotal() }

// Export materializes the adaptive grid into the smallest enclosing
// regular compact grid (SGC2 layout, compressed state): committed
// surpluses land at their gp2idx slots, absent points hold zero, and
// the interpolant is identical. The result is ready for Save /
// WriteSnapshot and the batched evaluation paths.
func (a *AdaptiveGrid) Export(opts ...Option) (*Grid, error) {
	cg, err := a.g.ExportCompact()
	if err != nil {
		return nil, err
	}
	g := &Grid{g: cg, compressed: true, workers: 1}
	for _, o := range opts {
		if err := o(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}
