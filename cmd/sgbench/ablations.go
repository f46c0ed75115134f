package main

import (
	"fmt"

	"compactsg/internal/combi"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/gpusim"
	"compactsg/internal/hier"
	"compactsg/internal/kernels"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// runAblationSharedL reproduces the §5.3 claim that keeping the level
// vector in block-shared memory (master thread updates, barrier, all
// read) beats per-thread copies, which spill to global-backed local
// memory: the paper measured 1.62× for hierarchization and 1.59× for
// evaluation.
func runAblationSharedL(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	d := p.dims[len(p.dims)-1]
	desc, err := core.NewDescriptor(d, p.level)
	if err != nil {
		return err
	}
	g := core.NewGrid(desc)
	g.Fill(fn.F)

	t := report.NewTable(
		fmt.Sprintf("§5.3 ablation — level vector placement (GPU model), d=%d, level %d", d, p.level),
		"Kernel", "block-shared l", "per-thread l", "shared-l speedup")

	hg := g.Clone()
	_, shared, err := kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.TeslaC1060()), hg.Clone(), kernels.Options{})
	if err != nil {
		return err
	}
	_, private, err := kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.TeslaC1060()), hg.Clone(), kernels.Options{PerThreadL: true})
	if err != nil {
		return err
	}
	t.AddRow("hierarchization", report.Seconds(shared), report.Seconds(private), report.Ratio(private/shared))

	hier.Iterative(hg)
	xs := workload.Points(p.seed, p.gpuPoints, d)
	out := make([]float64, len(xs))
	_, sharedE, err := kernels.EvaluateGPU(gpusim.NewDevice(gpusim.TeslaC1060()), hg, xs, out, kernels.Options{})
	if err != nil {
		return err
	}
	_, privateE, err := kernels.EvaluateGPU(gpusim.NewDevice(gpusim.TeslaC1060()), hg, xs, out, kernels.Options{PerThreadL: true})
	if err != nil {
		return err
	}
	t.AddRow("evaluation", report.Seconds(sharedE), report.Seconds(privateE), report.Ratio(privateE/sharedE))
	t.Note = "paper measured 1.62× (hierarchization) and 1.59× (evaluation) on the C1060"
	emit(p, t)
	return nil
}

// runAblationBinmat reproduces the §5.3 binmat placement study:
// constant cache vs shared memory vs computing binomials on the fly.
// The placement only matters where binomials are read per point — the
// naive one-thread-per-point kernel; the block-per-subspace kernel's
// stride-based parent lookups confine binmat to the block prologue
// (DESIGN.md §8.2), flattening the ablation, which the second column
// group shows.
func runAblationBinmat(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	d := p.dims[len(p.dims)-1]
	desc, err := core.NewDescriptor(d, p.level)
	if err != nil {
		return err
	}
	g := core.NewGrid(desc)
	g.Fill(fn.F)

	t := report.NewTable(
		fmt.Sprintf("§5.3 ablation — binmat placement (GPU model, hierarchization), d=%d, level %d", d, p.level),
		"binmat", "naive kernel", "vs constant", "stride kernel", "vs constant")
	modes := []kernels.BinmatMode{kernels.BinmatConst, kernels.BinmatShared, kernels.BinmatOnTheFly}
	naive := map[kernels.BinmatMode]float64{}
	stride := map[kernels.BinmatMode]float64{}
	for _, mode := range modes {
		_, sec, err := kernels.HierarchizeGPUNaive(gpusim.NewDevice(gpusim.TeslaC1060()), g.Clone(), kernels.Options{Binmat: mode})
		if err != nil {
			return err
		}
		naive[mode] = sec
		_, sec, err = kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.TeslaC1060()), g.Clone(), kernels.Options{Binmat: mode})
		if err != nil {
			return err
		}
		stride[mode] = sec
	}
	for _, mode := range modes {
		t.AddRow(mode.String(),
			report.Seconds(naive[mode]), report.Ratio(naive[mode]/naive[kernels.BinmatConst]),
			report.Seconds(stride[mode]), report.Ratio(stride[mode]/stride[kernels.BinmatConst]))
	}
	t.Note = "paper: on-the-fly ≈ 4× slower; constant slightly faster than shared — the per-point-walk (naive) kernel reproduces this; stride lookups amortize binmat away"
	emit(p, t)
	return nil
}

// runAblationBlocking reproduces the §4.3 cache-blocking optimization
// for batch evaluation: processing query points in blocks per subspace
// keeps each subspace's coefficients cache-resident.
func runAblationBlocking(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	d := p.dims[len(p.dims)-1]
	desc, err := core.NewDescriptor(d, p.level)
	if err != nil {
		return err
	}
	g := core.NewGrid(desc)
	g.Fill(fn.F)
	hier.Iterative(g)
	xs := workload.Points(p.seed, p.points*4, d)
	out := make([]float64, len(xs))

	t := report.NewTable(
		fmt.Sprintf("§4.3 ablation — blocked batch evaluation, d=%d, level %d, %d points", d, p.level, len(xs)),
		"variant", "time", "vs unblocked")
	base := report.Best(p.reps, func() { eval.Batch(g, xs, out, eval.Options{BlockSize: 1}) })
	t.AddRow("point-major (no blocking)", report.Seconds(base), report.Ratio(1))
	for _, bs := range []int{16, 64, 256} {
		sec := report.Best(p.reps, func() { eval.Batch(g, xs, out, eval.Options{BlockSize: bs}) })
		t.AddRow(fmt.Sprintf("subspace-major, block=%d", bs), report.Seconds(sec), report.Ratio(base/sec))
	}
	emit(p, t)
	return nil
}

// runCombi reproduces the §7 (related work) comparison with the
// combination technique: identical interpolants, trivially parallel,
// but with replicated grid points and therefore a growing memory
// overhead relative to the compact direct structure.
func runCombi(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("§7 — combination technique vs direct compact sparse grid, level %d", p.level),
		"d", "component grids", "combi points", "direct points", "replication", "max |combi−direct|")
	for _, d := range p.dims {
		if d > 6 {
			continue // component grid count explodes; the trend is visible by d=6
		}
		sol, err := combi.New(d, p.level)
		if err != nil {
			return err
		}
		sol.Fill(fn.F, p.maxWorkers)
		desc, err := core.NewDescriptor(d, p.level)
		if err != nil {
			return err
		}
		g := core.NewGrid(desc)
		g.Fill(fn.F)
		hier.Iterative(g)
		maxDiff := 0.0
		for _, x := range workload.Points(p.seed, 200, d) {
			diff := sol.Evaluate(x) - eval.Iterative(g, x)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxDiff {
				maxDiff = diff
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", len(sol.Components())),
			fmt.Sprintf("%d", sol.TotalPoints()),
			fmt.Sprintf("%d", desc.Size()),
			report.Ratio(sol.ReplicationFactor()),
			fmt.Sprintf("%.1e", maxDiff))
	}
	t.Note = "interpolants agree to roundoff; replication is the memory cost the compact structure avoids"
	emit(p, t)
	return nil
}
