// Explorer reproduces the paper's motivating application (Fig. 1):
// interactive visual exploration of a multi-dimensional simulation
// result stored in compressed form. A 5-dimensional "simulation output"
// is compressed once; the viewer then decompresses arbitrary 2d slices
// on demand — the operation whose latency decides whether browsing the
// data feels fluent — and renders them as ASCII heatmaps.
//
//	go run ./examples/explorer
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"compactsg"
	"compactsg/internal/viz"
)

// simulate stands in for the multi-physics simulation: a smooth
// 5-dimensional field with two interacting bumps. Parameters: x0, x1
// spatial, x2 time-like, x3, x4 model parameters.
func simulate(x []float64) float64 {
	window := 1.0
	for _, v := range x {
		window *= 4 * v * (1 - v)
	}
	a := math.Sin(math.Pi*x[0]*(1+x[3])) * math.Sin(math.Pi*x[1])
	b := math.Exp(-8 * ((x[0]-x[2])*(x[0]-x[2]) + (x[1]-0.5)*(x[1]-0.5)))
	return window * (a + 1.5*b*x[4])
}

const (
	dim   = 5
	level = 7
	cols  = 56
	rows  = 24
)

func main() {
	// Compress once (preprocessing).
	start := time.Now()
	g, err := compactsg.New(dim, level, compactsg.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	g.Compress(simulate)
	fmt.Printf("compressed %d-d field: %d points (%.1f MB) in %v\n",
		dim, g.Points(), float64(g.MemoryBytes())/(1<<20), time.Since(start).Round(time.Millisecond))

	// Interactive phase: sweep the time-like parameter x2 and render the
	// (x0, x1) slice at each step — exactly the decompression workload.
	for _, t := range []float64{0.25, 0.5, 0.75} {
		slice, sec, err := renderSlice(g, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nslice x2=%.2f  (x3=0.5, x4=0.5)  — %d evaluations in %v\n%s",
			t, cols*rows, sec.Round(time.Microsecond), slice)
	}
}

// renderSlice decompresses the (x0, x1) plane at the given x2 and fixed
// x3 = x4 = 0.5, and renders it as an ASCII heatmap.
func renderSlice(g *compactsg.Grid, t float64) (string, time.Duration, error) {
	start := time.Now()
	vals, err := g.Slice2D(compactsg.SliceSpec{
		AxisX: 0, AxisY: 1, NX: cols, NY: rows,
		Anchor: []float64{0, 0, t, 0.5, 0.5},
	})
	if err != nil {
		return "", 0, err
	}
	elapsed := time.Since(start)
	// Flip vertically: Slice2D's row 0 is y=0, terminals draw top-down.
	flipped := make([]float64, len(vals))
	for r := 0; r < rows; r++ {
		copy(flipped[r*cols:(r+1)*cols], vals[(rows-1-r)*cols:(rows-r)*cols])
	}
	raster, err := viz.NewRaster(cols, rows, flipped)
	if err != nil {
		return "", 0, err
	}
	return viz.ASCII(raster), elapsed, nil
}
