package main

import (
	"fmt"

	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/gpusim"
	"compactsg/internal/hier"
	"compactsg/internal/kernels"
	"compactsg/internal/mcmodel"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// compactHierWorkload characterizes the iterative hierarchization of the
// compact grid for the multicore model: the measured sequential time,
// the DRAM traffic, and one barrier per level group per dimension.
// Traffic: the coefficient stream is read and written once per
// dimension (16 B/point) and the two parent reads hit consecutive
// points' shared cache lines (the locality the paper claims for the
// flat layout — "at most one miss per coefficient access", amortized to
// 8 B/parent over a line's 8 coefficients), so ≈32 B/point/dimension.
func compactHierWorkload(desc *core.Descriptor, seqSec float64) mcmodel.Workload {
	bytes := float64(desc.Dim()) * float64(desc.Size()) * 32
	return mcmodel.Workload{SeqSec: seqSec, Bytes: bytes, Syncs: desc.Dim() * desc.Groups()}
}

// compactEvalWorkload: with the subspace-blocked traversal (paper §4.3)
// each block of query points streams the coefficient array once, so the
// DRAM traffic is one grid sweep per block of 256 points — evaluation is
// compute-, not memory-bound (paper Fig. 11b). No barriers.
func compactEvalWorkload(desc *core.Descriptor, npts int, seqSec float64) mcmodel.Workload {
	sweeps := float64((npts + 255) / 256)
	bytes := float64(desc.Size()) * 8 * sweeps
	return mcmodel.Workload{SeqSec: seqSec, Bytes: bytes}
}

// runFig10a reproduces Fig. 10a: hierarchization speedup versus the
// sequential CPU run over d, for the GPU (gpusim cost model) and the
// paper's three multicore machines (mcmodel roofline driven by the
// measured sequential time and the workload's traffic).
func runFig10a(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 10a — hierarchization speedup vs sequential CPU, level %d", p.level),
		append([]string{"Configuration"}, dimHeaders(p.speedDims)...)...)

	gpuRow := []string{"Tesla C1060 (modeled)"}
	cpuRows := make([][]string, len(mcmodel.Machines))
	for k, m := range mcmodel.Machines {
		cpuRows[k] = []string{m.Name + " (modeled)"}
	}

	for _, d := range p.speedDims {
		desc, err := core.NewDescriptor(d, p.level)
		if err != nil {
			return err
		}
		g := core.NewGrid(desc)
		tseq := report.Best(p.reps, func() {
			g.Fill(fn.F)
			hier.Iterative(g)
		}) - report.Best(p.reps, func() { g.Fill(fn.F) })
		if tseq <= 0 {
			tseq = 1e-9
		}

		g.Fill(fn.F)
		dev := gpusim.NewDevice(gpusim.TeslaC1060())
		_, gpuSec, err := kernels.HierarchizeGPU(dev, g, kernels.Options{})
		if err != nil {
			return err
		}
		gpuRow = append(gpuRow, report.Ratio(tseq/gpuSec))

		w := compactHierWorkload(desc, tseq)
		for k, m := range mcmodel.Machines {
			cpuRows[k] = append(cpuRows[k], report.Ratio(m.Speedup(w, m.Cores)))
		}
	}
	t.AddRow(gpuRow...)
	for _, row := range cpuRows {
		t.AddRow(row...)
	}
	t.Note = "paper: GPU reaches up to 17×, ≈2× the best multicore; GPU = gpusim cost model, CPUs = roofline scaling of the measured sequential run (see DESIGN.md §2)"
	emit(p, t)
	return nil
}

// runFig10b reproduces Fig. 10b: evaluation speedup versus the
// sequential CPU run.
func runFig10b(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 10b — evaluation speedup vs sequential CPU, level %d, %d points", p.level, p.gpuPoints),
		append([]string{"Configuration"}, dimHeaders(p.speedDims)...)...)

	gpuRow := []string{"Tesla C1060 (modeled)"}
	cpuRows := make([][]string, len(mcmodel.Machines))
	for k, m := range mcmodel.Machines {
		cpuRows[k] = []string{m.Name + " (modeled)"}
	}

	for _, d := range p.speedDims {
		desc, err := core.NewDescriptor(d, p.level)
		if err != nil {
			return err
		}
		g := core.NewGrid(desc)
		g.Fill(fn.F)
		hier.Iterative(g)
		xs := workload.Points(p.seed, p.gpuPoints, d)
		out := make([]float64, len(xs))

		tseq := report.Best(p.reps, func() {
			eval.Batch(g, xs, out, eval.Options{Workers: 1, BlockSize: 1})
		})
		if tseq <= 0 {
			tseq = 1e-9
		}

		dev := gpusim.NewDevice(gpusim.TeslaC1060())
		_, gpuSec, err := kernels.EvaluateGPU(dev, g, xs, out, kernels.Options{})
		if err != nil {
			return err
		}
		gpuRow = append(gpuRow, report.Ratio(tseq/gpuSec))

		w := compactEvalWorkload(desc, len(xs), tseq)
		for k, m := range mcmodel.Machines {
			cpuRows[k] = append(cpuRows[k], report.Ratio(m.Speedup(w, m.Cores)))
		}
	}
	t.AddRow(gpuRow...)
	for _, row := range cpuRows {
		t.AddRow(row...)
	}
	t.Note = "paper: GPU reaches up to 70×, ≈3× the best multicore; evaluation is embarrassingly parallel and not memory bound"
	emit(p, t)
	return nil
}
