package main

import (
	"fmt"
	"runtime"

	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// runScaling is the strong-scaling experiment for the real CPU kernels
// (DESIGN.md §10): the same hierarchization and batch-evaluation work
// is timed at 1..maxWorkers goroutines over the static per-level-group
// decomposition, reporting seconds, per-point cost and speedup vs one
// worker. With -paper the d=10 level-11 paperscale grid (127.5M
// points) is included. The worker counts measured are the powers of
// two up to -workers, plus -workers itself; on a host with fewer cores
// than workers the extra rows measure scheduling overhead, not
// speedup — GOMAXPROCS is printed so the table is honest about that.
func runScaling(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	ws := scalingWorkerCounts(p.maxWorkers)
	fmt.Printf("GOMAXPROCS=%d — rows with workers beyond it measure decomposition overhead, not parallel speedup\n",
		runtime.GOMAXPROCS(0))

	shapes := []struct {
		name       string
		dim, level int
	}{
		{"fig9-hier", 5, p.level},
	}
	if p.paper {
		shapes = append(shapes, struct {
			name       string
			dim, level int
		}{"paperscale", 10, 11})
	}

	for _, sh := range shapes {
		desc, err := core.NewDescriptor(sh.dim, sh.level)
		if err != nil {
			return err
		}
		g := core.NewGrid(desc)
		g.Fill(fn.F)
		nodal := make([]float64, len(g.Data))
		copy(nodal, g.Data)

		t := report.NewTable(
			fmt.Sprintf("strong scaling — hierarchization %s (d=%d, level %d: %d points)",
				sh.name, sh.dim, sh.level, desc.Size()),
			"workers", "seconds", "ns/point", "speedup")
		var base float64
		for _, w := range ws {
			best := 0.0
			for r := 0; r < p.reps; r++ {
				copy(g.Data, nodal) // restore nodal values untimed
				sec := report.MeasureSeconds(func() { hier.Parallel(g, w) })
				if r == 0 || sec < best {
					best = sec
				}
			}
			if w == ws[0] {
				base = best
			}
			t.AddRow(fmt.Sprintf("%d", w), report.Seconds(best),
				fmt.Sprintf("%.1f", best/float64(desc.Size())*1e9),
				report.Ratio(base/best))
		}
		emit(p, t)

		// Leave the grid hierarchized for the evaluation half.
		copy(g.Data, nodal)
		hier.Parallel(g, p.maxWorkers)
		xs := workload.Points(p.seed, p.points, sh.dim)
		out := make([]float64, len(xs))
		te := report.NewTable(
			fmt.Sprintf("strong scaling — evaluation %s (d=%d, level %d, %d query points)",
				sh.name, sh.dim, sh.level, len(xs)),
			"workers", "seconds", "ns/point", "speedup")
		base = 0
		for _, w := range ws {
			best := report.Best(p.reps, func() {
				eval.Batch(g, xs, out, eval.Options{Workers: w, BlockSize: 1})
			})
			if w == ws[0] {
				base = best
			}
			te.AddRow(fmt.Sprintf("%d", w), report.Seconds(best),
				fmt.Sprintf("%.1f", best/float64(len(xs))*1e9),
				report.Ratio(base/best))
		}
		emit(p, te)
	}
	return nil
}

// scalingWorkerCounts returns {1, 2, 4, ...} up to max, always
// including max itself.
func scalingWorkerCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var ws []int
	for w := 1; w < max; w *= 2 {
		ws = append(ws, w)
	}
	return append(ws, max)
}
