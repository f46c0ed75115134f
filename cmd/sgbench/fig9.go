package main

import (
	"fmt"

	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/grids"
	"compactsg/internal/hier"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// runFig9a reproduces Fig. 9a: sequential hierarchization runtime per
// data structure over the dimensionalities. The compact structure runs
// the iterative algorithm (Alg. 6); the others run the classic recursive
// algorithm (Alg. 1), as in the paper.
func runFig9a(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 9a — sequential hierarchization runtime, level %d", p.level),
		append([]string{"Data Structure"}, dimHeaders(p.dims)...)...)
	for _, kind := range grids.Kinds {
		row := []string{kind.String()}
		for _, d := range p.dims {
			desc, err := core.NewDescriptor(d, p.level)
			if err != nil {
				return err
			}
			var sec float64
			if kind == grids.Compact {
				g := core.NewGrid(desc)
				sec = report.Best(p.reps, func() {
					g.Fill(fn.F) // reset to nodal values
					// Timed region matches the others: hierarchization
					// only; Fill dominates neither (subtracted below).
					hier.Iterative(g)
				})
				fill := report.Best(p.reps, func() { g.Fill(fn.F) })
				sec -= fill
				if sec < 0 {
					sec = 0
				}
			} else {
				s := grids.New(kind, desc)
				sec = report.Best(p.reps, func() {
					grids.Fill(s, fn.F)
					hier.Recursive(s)
				})
				fill := report.Best(p.reps, func() { grids.Fill(s, fn.F) })
				sec -= fill
				if sec < 0 {
					sec = 0
				}
			}
			row = append(row, report.Seconds(sec))
		}
		t.AddRow(row...)
	}
	t.Note = fmt.Sprintf("paper runs level 11 on an i7-920; this run is level %d (scale with -level)", p.level)
	emit(p, t)
	return nil
}

// runFig9b reproduces Fig. 9b: sequential time per evaluation per data
// structure. Compact uses the iterative next-based algorithm (Alg. 7),
// the others the recursive one (Alg. 2).
func runFig9b(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 9b — sequential time per evaluation, level %d, %d query points", p.level, p.points),
		append([]string{"Data Structure"}, dimHeaders(p.dims)...)...)
	for _, kind := range grids.Kinds {
		row := []string{kind.String()}
		for _, d := range p.dims {
			desc, err := core.NewDescriptor(d, p.level)
			if err != nil {
				return err
			}
			xs := workload.Points(p.seed, p.points, d)
			var sec float64
			if kind == grids.Compact {
				g := core.NewGrid(desc)
				g.Fill(fn.F)
				hier.Iterative(g)
				out := make([]float64, len(xs))
				sec = report.Best(p.reps, func() {
					eval.Batch(g, xs, out, eval.Options{Workers: 1, BlockSize: 1})
				})
			} else {
				s := grids.New(kind, desc)
				grids.Fill(s, fn.F)
				hier.Recursive(s)
				out := make([]float64, len(xs))
				sec = report.Best(p.reps, func() {
					eval.RecursiveBatch(s, xs, out, 1)
				})
			}
			row = append(row, report.Seconds(sec/float64(p.points)))
		}
		t.AddRow(row...)
	}
	t.Note = fmt.Sprintf("time per single evaluation; paper uses level 11 and ~1e5 points (scale with -level/-points)")
	emit(p, t)
	return nil
}
