package eval

import (
	"math"
	"math/rand"
	"testing"

	"compactsg/internal/core"
	"compactsg/internal/grids"
	"compactsg/internal/hier"
)

func parabola(x []float64) float64 {
	p := 1.0
	for _, v := range x {
		p *= 4 * v * (1 - v)
	}
	return p
}

func randPoints(rng *rand.Rand, n, d int) [][]float64 {
	xs := make([][]float64, n)
	for k := range xs {
		x := make([]float64, d)
		for t := range x {
			x[t] = rng.Float64()
		}
		xs[k] = x
	}
	return xs
}

func hierGrid(d, n int, f func([]float64) float64) *core.Grid {
	g := core.NewGrid(core.MustDescriptor(d, n))
	g.Fill(f)
	hier.Iterative(g)
	return g
}

func TestIterativeReproducesNodalValues(t *testing.T) {
	for _, c := range []struct{ d, n int }{{1, 6}, {2, 5}, {3, 4}, {4, 4}} {
		g := core.NewGrid(core.MustDescriptor(c.d, c.n))
		g.Fill(parabola)
		nodal := g.Clone()
		hier.Iterative(g)
		x := make([]float64, c.d)
		g.Desc().VisitPoints(func(idx int64, l, i []int32) {
			core.Coords(l, i, x)
			got := Iterative(g, x)
			if math.Abs(got-nodal.Data[idx]) > 1e-12 {
				t.Fatalf("d=%d n=%d: eval at grid point %v = %g want %g", c.d, c.n, x, got, nodal.Data[idx])
			}
		})
	}
}

func TestIterativeMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ d, n int }{{1, 6}, {2, 5}, {3, 4}, {5, 3}} {
		g := hierGrid(c.d, c.n, parabola)
		store := grids.NewCompactStore(g)
		for _, x := range randPoints(rng, 50, c.d) {
			a := Iterative(g, x)
			b := Recursive(store, x)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("d=%d n=%d at %v: iterative %g vs recursive %g", c.d, c.n, x, a, b)
			}
		}
	}
}

func TestRecursiveAgreesAcrossStores(t *testing.T) {
	desc := core.MustDescriptor(3, 4)
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 25, 3)
	ref := grids.New(grids.Compact, desc)
	grids.Fill(ref, parabola)
	hier.Recursive(ref)
	want := make([]float64, len(pts))
	for k, x := range pts {
		want[k] = Recursive(ref, x)
	}
	for _, kind := range grids.Kinds[1:] {
		s := grids.New(kind, desc)
		grids.Fill(s, parabola)
		hier.Recursive(s)
		for k, x := range pts {
			if got := Recursive(s, x); math.Abs(got-want[k]) > 1e-12 {
				t.Errorf("%v at %v: %g want %g", kind, x, got, want[k])
			}
		}
	}
}

func TestInterpolationErrorSmallForSmoothFunction(t *testing.T) {
	// Between grid points the interpolant approximates a smooth function;
	// error must shrink as the level grows.
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 200, 2)
	var prev float64 = math.Inf(1)
	for _, n := range []int{3, 5, 7} {
		g := hierGrid(2, n, parabola)
		maxErr := 0.0
		for _, x := range pts {
			e := math.Abs(Iterative(g, x) - parabola(x))
			if e > maxErr {
				maxErr = e
			}
		}
		if maxErr >= prev {
			t.Errorf("level %d: max error %g did not shrink (prev %g)", n, maxErr, prev)
		}
		prev = maxErr
	}
	if prev > 1e-2 {
		t.Errorf("level-7 interpolation error %g too large for smooth f", prev)
	}
}

func TestBatchVariantsIdentical(t *testing.T) {
	g := hierGrid(4, 4, parabola)
	rng := rand.New(rand.NewSource(8))
	xs := randPoints(rng, 137, 4)
	ref := references(g, xs)
	variants := []Options{
		{},
		{Workers: 2},
		{Workers: 5},
		{BlockSize: 16},
		{BlockSize: 7},
		{Workers: 3, BlockSize: 32},
		{Workers: 8, BlockSize: 1},
	}
	for _, opt := range variants {
		checkBatch(t, g, xs, ref, opt)
	}
}

func TestBatchReusesOutSlice(t *testing.T) {
	g := hierGrid(2, 3, parabola)
	xs := randPoints(rand.New(rand.NewSource(9)), 10, 2)
	out := make([]float64, 10)
	got := Batch(g, xs, out, Options{})
	if &got[0] != &out[0] {
		t.Error("Batch must reuse the provided output slice")
	}
}

func TestEvaluateOutsideDomainClamps(t *testing.T) {
	g := hierGrid(2, 4, parabola)
	// Clamped coordinates must not panic and must equal evaluation at the
	// clamped location's cell; the hat at the domain edge is 0 for the
	// zero-boundary basis.
	for _, x := range [][]float64{{-0.5, 0.5}, {0.5, 1.5}, {1.0, 1.0}, {0.0, 0.0}} {
		got := Iterative(g, x)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("evaluation at %v = %g", x, got)
		}
	}
	// Exactly at the boundary the zero-boundary interpolant vanishes.
	if got := Iterative(g, []float64{0, 0.5}); got != 0 {
		t.Errorf("interpolant at x1=0 is %g, want 0", got)
	}
	if got := Iterative(g, []float64{1, 0.5}); got != 0 {
		t.Errorf("interpolant at x1=1 is %g, want 0", got)
	}
}

func TestEvaluateOnDehierarchizedGridIsWrong(t *testing.T) {
	// Guard against confusing nodal and hierarchical storage: evaluating
	// a non-hierarchized grid must NOT reproduce f between grid points
	// (it sums nodal values over overlapping supports).
	g := core.NewGrid(core.MustDescriptor(2, 5))
	g.Fill(parabola)
	// Pick a point off every grid line so many supports overlap.
	x := []float64{0.3, 0.7}
	if got := Iterative(g, x); math.Abs(got-parabola(x)) < 0.1 {
		t.Errorf("nodal-value evaluation accidentally correct (%g); test is vacuous", got)
	}
}

func TestBatchEmptyInput(t *testing.T) {
	g := hierGrid(2, 3, parabola)
	if out := Batch(g, nil, nil, Options{Workers: 4, BlockSize: 8}); len(out) != 0 {
		t.Errorf("Batch(nil) returned %d results", len(out))
	}
}
