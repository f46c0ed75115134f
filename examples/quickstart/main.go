// Quickstart: compress a 4-dimensional function onto a sparse grid,
// evaluate it at a few points, and inspect the compression factor.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"compactsg"
)

func main() {
	// f(x) = Π 4·x(1-x): smooth, zero on the domain boundary.
	f := func(x []float64) float64 {
		p := 1.0
		for _, v := range x {
			p *= 4 * v * (1 - v)
		}
		return p
	}

	// A 4-dimensional sparse grid of refinement level 8 holds 18,943
	// points; the full grid with the same resolution would hold
	// (2^8-1)^4 ≈ 4.2 · 10^9.
	g, err := compactsg.New(4, 8, compactsg.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	g.Compress(f)

	full := math.Pow(math.Pow(2, 8)-1, 4)
	fmt.Printf("sparse grid: %d points (%.0f KB); full grid: %.3g points (compression %.0f×)\n",
		g.Points(), float64(g.MemoryBytes())/1024, full, full/float64(g.Points()))

	for _, x := range [][]float64{
		{0.5, 0.5, 0.5, 0.5},
		{0.3, 0.7, 0.2, 0.9},
		{0.1, 0.1, 0.1, 0.1},
	} {
		y, err := g.Evaluate(x)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("f%v = %.6f   (exact %.6f, error %.2e)\n", x, y, f(x), math.Abs(y-f(x)))
	}

	// Batch evaluation — the kernel applies the paper's cache blocking
	// on its own, with a block width derived from the grid's shape.
	gb, err := compactsg.New(4, 8, compactsg.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	gb.Compress(f)
	xs := make([][]float64, 1000)
	for k := range xs {
		t := float64(k) / float64(len(xs)-1)
		xs[k] = []float64{t, 1 - t, 0.5 * t, 0.25 + 0.5*t}
	}
	ys, err := gb.EvaluateBatch(xs, nil)
	if err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for k, x := range xs {
		if e := math.Abs(ys[k] - f(x)); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("batch of %d points: max interpolation error %.2e\n", len(xs), maxErr)
}
