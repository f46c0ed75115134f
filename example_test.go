package compactsg_test

import (
	"fmt"
	"math"

	"compactsg"
)

// The canonical round trip: compress a smooth zero-boundary function,
// evaluate it anywhere.
func ExampleNew() {
	f := func(x []float64) float64 {
		return 16 * x[0] * (1 - x[0]) * x[1] * (1 - x[1])
	}
	g, err := compactsg.New(2, 8)
	if err != nil {
		panic(err)
	}
	g.Compress(f)
	y, _ := g.Evaluate([]float64{0.5, 0.5})
	fmt.Printf("points: %d, f(center) = %.4f\n", g.Points(), y)
	// Output:
	// points: 1793, f(center) = 1.0000
}

// Batch evaluation distributes query points over workers in the
// paper's cache-blocked traversal.
func ExampleGrid_EvaluateBatch() {
	g, _ := compactsg.New(3, 6, compactsg.WithWorkers(2))
	g.Compress(func(x []float64) float64 {
		return 64 * x[0] * (1 - x[0]) * x[1] * (1 - x[1]) * x[2] * (1 - x[2])
	})
	xs := [][]float64{{0.5, 0.5, 0.5}, {0.25, 0.5, 0.75}}
	ys, _ := g.EvaluateBatch(xs, nil)
	fmt.Printf("%.4f %.4f\n", ys[0], ys[1])
	// Output:
	// 1.0000 0.5625
}

// Functions with non-zero boundary values need the extended context of
// the paper's Sec. 4.4.
func ExampleNewWithBoundary() {
	f := func(x []float64) float64 { return 1 + x[0] + 2*x[1] }
	b, _ := compactsg.NewWithBoundary(2, 5)
	b.Compress(f)
	corner, _ := b.Evaluate([]float64{1, 1})
	integral, _ := b.Integrate()
	fmt.Printf("f(1,1) = %.1f, ∫f = %.1f\n", corner, integral)
	// Output:
	// f(1,1) = 4.0, ∫f = 2.5
}

// Closed-form quadrature over the compressed representation.
func ExampleGrid_Integrate() {
	g, _ := compactsg.New(1, 12)
	g.Compress(func(x []float64) float64 { return 4 * x[0] * (1 - x[0]) })
	v, _ := g.Integrate()
	fmt.Printf("∫ 4x(1-x) ≈ %.5f (exact %.5f)\n", v, 2.0/3.0)
	// Output:
	// ∫ 4x(1-x) ≈ 0.66667 (exact 0.66667)
}

// Adaptive grids spend points where the function is rough.
func ExampleNewAdaptive() {
	peak := func(x []float64) float64 {
		d := x[0] - 0.3
		return 4 * x[0] * (1 - x[0]) * math.Exp(-200*d*d)
	}
	a, _ := compactsg.NewAdaptive(1, 3, 14, peak)
	a.RefineToTolerance(1e-4, 4000)
	y, _ := a.Evaluate([]float64{0.3})
	fmt.Printf("error at the peak below 1e-4: %v\n", math.Abs(y-peak([]float64{0.3})) < 1e-4)
	// Output:
	// error at the peak below 1e-4: true
}
