// Benchmarks regenerating the paper's evaluation, one per table/figure
// (DESIGN.md §4). The testing.B benches run at laptop-scale sizes; the
// full parameter sweeps with the paper's row/series layout live in
// cmd/sgbench. GPU entries execute on the gpusim simulator and
// additionally report the cost model's modeled time as a custom metric.
package compactsg_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"compactsg/internal/adaptive"
	"compactsg/internal/boundary"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/gpusim"
	"compactsg/internal/grids"
	"compactsg/internal/hier"
	"compactsg/internal/kernels"
	"compactsg/internal/workload"
)

const (
	benchLevel  = 7
	benchDim    = 5
	benchPoints = 64
)

func benchDesc(b *testing.B) *core.Descriptor {
	b.Helper()
	desc, err := core.NewDescriptor(benchDim, benchLevel)
	if err != nil {
		b.Fatal(err)
	}
	return desc
}

// BenchmarkTable1Access — Table 1: one random existing-point access per
// data structure.
func BenchmarkTable1Access(b *testing.B) {
	desc := benchDesc(b)
	n := desc.Size()
	// Precompute a shuffled access sequence.
	ls := make([][]int32, n)
	is := make([][]int32, n)
	for k := int64(0); k < n; k++ {
		l := make([]int32, benchDim)
		i := make([]int32, benchDim)
		desc.Idx2GP((k*2654435761)%n, l, i)
		ls[k], is[k] = l, i
	}
	for _, kind := range grids.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := grids.New(kind, desc)
			grids.Fill(s, workload.Parabola.F)
			b.ResetTimer()
			sink := 0.0
			for k := 0; k < b.N; k++ {
				idx := int64(k) % n
				sink += s.Get(ls[idx], is[idx])
			}
			_ = sink
		})
	}
}

// BenchmarkFig8Memory — Fig. 8: construction cost per structure, with
// the modeled bytes reported as a metric.
func BenchmarkFig8Memory(b *testing.B) {
	desc := benchDesc(b)
	for _, kind := range grids.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var bytes int64
			for k := 0; k < b.N; k++ {
				bytes = grids.New(kind, desc).MemoryBytes()
			}
			b.ReportMetric(float64(bytes), "modelbytes")
		})
	}
}

// BenchmarkFig9Hierarchization — Fig. 9a: sequential hierarchization per
// structure (iterative for compact, recursive Alg. 1 for the rest).
func BenchmarkFig9Hierarchization(b *testing.B) {
	desc := benchDesc(b)
	b.Run(grids.Compact.String(), func(b *testing.B) {
		g := core.NewGrid(desc)
		for k := 0; k < b.N; k++ {
			b.StopTimer()
			g.Fill(workload.Parabola.F)
			b.StartTimer()
			hier.Iterative(g)
		}
		reportPerPoint(b, int64(b.N)*desc.Size())
	})
	for _, kind := range grids.Kinds[1:] {
		b.Run(kind.String(), func(b *testing.B) {
			s := grids.New(kind, desc)
			for k := 0; k < b.N; k++ {
				b.StopTimer()
				grids.Fill(s, workload.Parabola.F)
				b.StartTimer()
				hier.Recursive(s)
			}
		})
	}
}

// BenchmarkFig9Evaluation — Fig. 9b: sequential evaluation per
// structure (per batch of benchPoints query points).
func BenchmarkFig9Evaluation(b *testing.B) {
	desc := benchDesc(b)
	xs := workload.Points(9, benchPoints, benchDim)
	out := make([]float64, len(xs))
	b.Run(grids.Compact.String(), func(b *testing.B) {
		g := core.NewGrid(desc)
		g.Fill(workload.Parabola.F)
		hier.Iterative(g)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			eval.Batch(g, xs, out, eval.Options{Workers: 1, BlockSize: 1})
		}
		reportPerPoint(b, int64(b.N)*int64(len(xs)))
	})
	for _, kind := range grids.Kinds[1:] {
		b.Run(kind.String(), func(b *testing.B) {
			s := grids.New(kind, desc)
			grids.Fill(s, workload.Parabola.F)
			hier.Recursive(s)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				eval.RecursiveBatch(s, xs, out, 1)
			}
		})
	}
}

// BenchmarkFig10Hierarchization — Fig. 10a: sequential vs parallel vs
// GPU-simulated hierarchization of the compact grid. The GPU run
// reports the cost model's time as "modeled_ms".
func BenchmarkFig10Hierarchization(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	b.Run("CPU_sequential", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			b.StopTimer()
			g.Fill(workload.Parabola.F)
			b.StartTimer()
			hier.Iterative(g)
		}
	})
	b.Run("CPU_2workers", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			b.StopTimer()
			g.Fill(workload.Parabola.F)
			b.StartTimer()
			hier.Parallel(g, 2)
		}
	})
	b.Run("GPU_simulated", func(b *testing.B) {
		var modeled float64
		for k := 0; k < b.N; k++ {
			b.StopTimer()
			g.Fill(workload.Parabola.F)
			dev := gpusim.NewDevice(gpusim.TeslaC1060())
			b.StartTimer()
			_, sec, err := kernels.HierarchizeGPU(dev, g, kernels.Options{})
			if err != nil {
				b.Fatal(err)
			}
			modeled = sec
		}
		b.ReportMetric(modeled*1e3, "modeled_ms")
	})
}

// BenchmarkFig10Evaluation — Fig. 10b: sequential vs parallel vs
// GPU-simulated evaluation.
func BenchmarkFig10Evaluation(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	hier.Iterative(g)
	xs := workload.Points(10, benchPoints, benchDim)
	out := make([]float64, len(xs))
	b.Run("CPU_sequential", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			eval.Batch(g, xs, out, eval.Options{Workers: 1, BlockSize: 1})
		}
	})
	b.Run("CPU_2workers", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			eval.Batch(g, xs, out, eval.Options{Workers: 2})
		}
	})
	b.Run("GPU_simulated", func(b *testing.B) {
		var modeled float64
		for k := 0; k < b.N; k++ {
			dev := gpusim.NewDevice(gpusim.TeslaC1060())
			_, sec, err := kernels.EvaluateGPU(dev, g, xs, out, kernels.Options{})
			if err != nil {
				b.Fatal(err)
			}
			modeled = sec
		}
		b.ReportMetric(modeled*1e3, "modeled_ms")
	})
}

// BenchmarkFig11Hierarchization — Fig. 11a: hierarchization at 1 and 2
// workers per structure (the roofline projection to 32 cores lives in
// sgbench fig11a).
func BenchmarkFig11Hierarchization(b *testing.B) {
	desc := benchDesc(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("%s_w%d", grids.Compact, workers), func(b *testing.B) {
			g := core.NewGrid(desc)
			for k := 0; k < b.N; k++ {
				b.StopTimer()
				g.Fill(workload.Parabola.F)
				b.StartTimer()
				hier.Parallel(g, workers)
			}
		})
		for _, kind := range grids.Kinds[1:] {
			b.Run(fmt.Sprintf("%s_w%d", kind, workers), func(b *testing.B) {
				s := grids.New(kind, desc)
				for k := 0; k < b.N; k++ {
					b.StopTimer()
					grids.Fill(s, workload.Parabola.F)
					b.StartTimer()
					hier.RecursiveParallel(s, workers)
				}
			})
		}
	}
}

// BenchmarkFig11Evaluation — Fig. 11b: evaluation at 1 and 2 workers
// per structure.
func BenchmarkFig11Evaluation(b *testing.B) {
	desc := benchDesc(b)
	xs := workload.Points(11, benchPoints, benchDim)
	out := make([]float64, len(xs))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("%s_w%d", grids.Compact, workers), func(b *testing.B) {
			g := core.NewGrid(desc)
			g.Fill(workload.Parabola.F)
			hier.Iterative(g)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				eval.Batch(g, xs, out, eval.Options{Workers: workers})
			}
		})
		for _, kind := range grids.Kinds[1:] {
			b.Run(fmt.Sprintf("%s_w%d", kind, workers), func(b *testing.B) {
				s := grids.New(kind, desc)
				grids.Fill(s, workload.Parabola.F)
				hier.Recursive(s)
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					eval.RecursiveBatch(s, xs, out, workers)
				}
			})
		}
	}
}

// BenchmarkAblationSharedL — §5.3: block-shared vs per-thread level
// vector on the GPU simulator (modeled times as metrics).
func BenchmarkAblationSharedL(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	for _, c := range []struct {
		name string
		opt  kernels.Options
	}{
		{"shared_l", kernels.Options{}},
		{"per_thread_l", kernels.Options{PerThreadL: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var modeled float64
			for k := 0; k < b.N; k++ {
				dev := gpusim.NewDevice(gpusim.TeslaC1060())
				work := g.Clone()
				_, sec, err := kernels.HierarchizeGPU(dev, work, c.opt)
				if err != nil {
					b.Fatal(err)
				}
				modeled = sec
			}
			b.ReportMetric(modeled*1e3, "modeled_ms")
		})
	}
}

// BenchmarkAblationBinmat — §5.3: binmat placement on the GPU simulator.
func BenchmarkAblationBinmat(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	for _, mode := range []kernels.BinmatMode{kernels.BinmatConst, kernels.BinmatShared, kernels.BinmatOnTheFly} {
		b.Run(mode.String(), func(b *testing.B) {
			var modeled float64
			for k := 0; k < b.N; k++ {
				dev := gpusim.NewDevice(gpusim.TeslaC1060())
				work := g.Clone()
				_, sec, err := kernels.HierarchizeGPU(dev, work, kernels.Options{Binmat: mode})
				if err != nil {
					b.Fatal(err)
				}
				modeled = sec
			}
			b.ReportMetric(modeled*1e3, "modeled_ms")
		})
	}
}

// BenchmarkAblationBlocking — §4.3: cache-blocked batch evaluation.
func BenchmarkAblationBlocking(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	hier.Iterative(g)
	xs := workload.Points(12, 512, benchDim)
	out := make([]float64, len(xs))
	for _, bs := range []int{1, 16, 64, 256} {
		name := "unblocked"
		if bs > 1 {
			name = fmt.Sprintf("block%d", bs)
		}
		b.Run(name, func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				eval.Batch(g, xs, out, eval.Options{BlockSize: bs})
			}
		})
	}
}

// Micro-benchmarks of the index maps themselves — the O(d) costs Table 1
// builds on.
func BenchmarkGP2Idx(b *testing.B) {
	desc := benchDesc(b)
	l := []int32{1, 0, 2, 1, 0}
	i := []int32{1, 1, 5, 3, 1}
	var sink int64
	for k := 0; k < b.N; k++ {
		sink += desc.GP2Idx(l, i)
	}
	_ = sink
}

func BenchmarkIdx2GP(b *testing.B) {
	desc := benchDesc(b)
	l := make([]int32, benchDim)
	i := make([]int32, benchDim)
	n := desc.Size()
	for k := 0; k < b.N; k++ {
		desc.Idx2GP(int64(k)%n, l, i)
	}
}

func BenchmarkNextIterator(b *testing.B) {
	l := make([]int32, benchDim)
	core.First(l, benchLevel-1)
	for k := 0; k < b.N; k++ {
		if core.Next(l) < 0 {
			core.First(l, benchLevel-1)
		}
	}
}

// BenchmarkFermiVsTesla — §8 future work: the same hierarchization on
// both device models (modeled times as metrics).
func BenchmarkFermiVsTesla(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	for _, cfg := range []gpusim.Config{gpusim.TeslaC1060(), gpusim.FermiC2050()} {
		b.Run(cfg.Name, func(b *testing.B) {
			var modeled float64
			for k := 0; k < b.N; k++ {
				_, sec, err := kernels.HierarchizeGPU(gpusim.NewDevice(cfg), g.Clone(), kernels.Options{})
				if err != nil {
					b.Fatal(err)
				}
				modeled = sec
			}
			b.ReportMetric(modeled*1e3, "modeled_ms")
		})
	}
}

// BenchmarkDecomposition — block-per-subspace vs one-thread-per-point.
func BenchmarkDecomposition(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	b.Run("block_per_subspace", func(b *testing.B) {
		var modeled float64
		for k := 0; k < b.N; k++ {
			_, sec, err := kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.TeslaC1060()), g.Clone(), kernels.Options{})
			if err != nil {
				b.Fatal(err)
			}
			modeled = sec
		}
		b.ReportMetric(modeled*1e3, "modeled_ms")
	})
	b.Run("thread_per_point", func(b *testing.B) {
		var modeled float64
		for k := 0; k < b.N; k++ {
			_, sec, err := kernels.HierarchizeGPUNaive(gpusim.NewDevice(gpusim.TeslaC1060()), g.Clone(), kernels.Options{})
			if err != nil {
				b.Fatal(err)
			}
			modeled = sec
		}
		b.ReportMetric(modeled*1e3, "modeled_ms")
	})
}

// BenchmarkIntegrate — closed-form quadrature over the compact layout.
func BenchmarkIntegrate(b *testing.B) {
	g := core.NewGrid(benchDesc(b))
	g.Fill(workload.Parabola.F)
	hier.Iterative(g)
	sink := 0.0
	for k := 0; k < b.N; k++ {
		sink += eval.Integrate(g)
	}
	_ = sink
}

// BenchmarkThreshold — the lossy compression pass plus sparse encoding.
func BenchmarkThreshold(b *testing.B) {
	base := core.NewGrid(benchDesc(b))
	base.Fill(workload.Gaussian.F)
	hier.Iterative(base)
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		g := base.Clone()
		b.StartTimer()
		g.Threshold(1e-4)
	}
}

// BenchmarkHierarchizeBoundary — the Sec. 4.4 extended transform.
func BenchmarkHierarchizeBoundary(b *testing.B) {
	bg, err := boundary.New(3, benchLevel)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		bg.Fill(workload.Multilinear.F)
		b.StartTimer()
		bg.Hierarchize()
	}
}

// ---------------------------------------------------------------------
// Kernel trajectory matrix: ns/point of the two compact-layout hot
// kernels across refinement levels 5–8 and d ∈ {2, 5, 10}. `make bench`
// (scripts/bench.sh) appends the BenchmarkKernelEval rows, at -cpu 1
// and 2, to BENCH_trajectory.jsonl; BENCH_kernels.json holds the rows
// recorded before that file existed.

var kernelMatrix = []struct{ dim, level int }{
	{2, 5}, {2, 6}, {2, 7}, {2, 8},
	{5, 5}, {5, 6}, {5, 7}, {5, 8},
	{10, 5}, {10, 6}, {10, 7}, {10, 8},
}

// kernelParWorkers is the worker count of the "par" rows. Fixed (rather
// than GOMAXPROCS) so runs on different machines stay comparable.
const kernelParWorkers = 4

// reportPerPoint attaches the per-grid-point metrics the trajectory
// harness parses: points is the total number of point-updates (hier) or
// query evaluations (eval) performed across all b.N iterations.
func reportPerPoint(b *testing.B, points int64) {
	b.Helper()
	ns := float64(b.Elapsed().Nanoseconds()) / float64(points)
	b.ReportMetric(ns, "ns/point")
	if ns > 0 {
		b.ReportMetric(1e9/ns, "points/s")
	}
}

// BenchmarkKernelEval — batch evaluation of benchPoints query points:
// one worker and kernelParWorkers workers at the derived block width,
// and an explicit 256-point block (capped at the batch size).
func BenchmarkKernelEval(b *testing.B) {
	variants := []struct {
		name string
		opt  eval.Options
	}{
		{"seq", eval.Options{Workers: 1}},
		{"par", eval.Options{Workers: kernelParWorkers}},
		{"blk256", eval.Options{BlockSize: 256}},
	}
	for _, c := range kernelMatrix {
		for _, v := range variants {
			b.Run(fmt.Sprintf("l%d_d%d_%s", c.level, c.dim, v.name), func(b *testing.B) {
				desc, err := core.NewDescriptor(c.dim, c.level)
				if err != nil {
					b.Fatal(err)
				}
				g := core.NewGrid(desc)
				g.Fill(workload.Parabola.F)
				hier.Iterative(g)
				xs := workload.Points(13, benchPoints, c.dim)
				out := make([]float64, len(xs))
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					eval.Batch(g, xs, out, v.opt)
				}
				reportPerPoint(b, int64(b.N)*int64(len(xs)))
			})
		}
	}
}

// BenchmarkKernelHier — in-place hierarchization of the full grid,
// sequential and parallel (ns/point counts every grid point once per
// b.N iteration, i.e. all d dimension passes together).
func BenchmarkKernelHier(b *testing.B) {
	variants := []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{"par", kernelParWorkers},
	}
	for _, c := range kernelMatrix {
		for _, v := range variants {
			b.Run(fmt.Sprintf("l%d_d%d_%s", c.level, c.dim, v.name), func(b *testing.B) {
				desc, err := core.NewDescriptor(c.dim, c.level)
				if err != nil {
					b.Fatal(err)
				}
				g := core.NewGrid(desc)
				for k := 0; k < b.N; k++ {
					b.StopTimer()
					g.Fill(workload.Parabola.F)
					b.StartTimer()
					hier.Parallel(g, v.workers)
				}
				reportPerPoint(b, int64(b.N)*desc.Size())
			})
		}
	}
}

// BenchmarkKernelHierScaling — hierarchization of the l7/d5 grid at
// 1..8 workers over the static per-level-group decomposition
// (DESIGN.md §10). On a single-core host the w>1 rows measure the
// pool+barrier overhead, not speedup; BENCH_kernels.json recorded both
// so the trajectory is honest about the machine it ran on.
func BenchmarkKernelHierScaling(b *testing.B) {
	desc := benchDesc(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			g := core.NewGrid(desc)
			for k := 0; k < b.N; k++ {
				b.StopTimer()
				g.Fill(workload.Parabola.F)
				b.StartTimer()
				hier.Parallel(g, w)
			}
			reportPerPoint(b, int64(b.N)*desc.Size())
		})
	}
}

// BenchmarkKernelEvalScaling — batch evaluation of 512 query points on
// the l7/d5 grid at 1..8 workers (static decomposition in whole cache
// blocks).
func BenchmarkKernelEvalScaling(b *testing.B) {
	desc := benchDesc(b)
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	hier.Iterative(g)
	xs := workload.Points(14, 512, benchDim)
	out := make([]float64, len(xs))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				eval.Batch(g, xs, out, eval.Options{Workers: w})
			}
			reportPerPoint(b, int64(b.N)*int64(len(xs)))
		})
	}
}

// BenchmarkPaperscaleHier — hierarchization of the paper's flagship
// grid (d=10, level 11: 127,574,017 points, ~1 GB) per worker count.
// Gated behind SG_PAPERSCALE=1: the grid is filled once (~10 s) and
// each timed transform is undone by an untimed dehierarchization, so
// iterations reuse the array instead of re-sampling 127.5M points.
// (The inverse reintroduces a few ulps of rounding per round trip —
// irrelevant for timing, which only depends on the layout.)
func BenchmarkPaperscaleHier(b *testing.B) {
	if os.Getenv("SG_PAPERSCALE") == "" {
		b.Skip("set SG_PAPERSCALE=1 to run the 127.5M-point paperscale benchmark (~1 GB, minutes)")
	}
	desc, err := core.NewDescriptor(10, 11)
	if err != nil {
		b.Fatal(err)
	}
	g := core.NewGrid(desc)
	g.Fill(workload.Parabola.F)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				hier.Parallel(g, w)
				b.StopTimer()
				hier.DehierarchizeParallel(g, w)
				b.StartTimer()
			}
			reportPerPoint(b, int64(b.N)*desc.Size())
		})
	}
}

// BenchmarkAdaptiveRefine — one refinement round on a localized peak.
func BenchmarkAdaptiveRefine(b *testing.B) {
	peakF := func(x []float64) float64 {
		d0, d1 := x[0]-0.3, x[1]-0.3
		return 16 * x[0] * (1 - x[0]) * x[1] * (1 - x[1]) * math.Exp(-100*(d0*d0+d1*d1))
	}
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		ag, err := adaptive.New(2, 3, 10, peakF)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ag.Refine(1e-3, 1000)
	}
}
