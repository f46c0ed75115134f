package main

import (
	"fmt"
	"math"

	"compactsg/internal/adaptive"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// hashBytesPerPoint models the gp2idx-keyed hash layout the paper's
// Sec. 7 cites for adaptive grids: key, value, chain/metadata overhead
// and container slack per entry.
const hashBytesPerPoint = 48

// runAdaptive demonstrates the flexibility/compactness trade-off of
// Sec. 7 on a localized feature, comparing points-to-accuracy: the
// adaptive grid (refinement-capable, kept as the dense gp2idx prefix of
// its deepest level group) versus the regular compact grid (minimal
// memory, fixed point set). Each row prints its measured bytes next to
// what the hash layout would hold for the same points.
func runAdaptive(p params) error {
	peak := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			d := v - 0.3
			s += d * d
		}
		w := 1.0
		for _, v := range x {
			w *= 4 * v * (1 - v)
		}
		return w * math.Exp(-100*s)
	}
	const dim = 2
	pts := workload.Points(p.seed, 500, dim)
	maxErr := func(ev func([]float64) float64) float64 {
		m := 0.0
		for _, x := range pts {
			if e := math.Abs(ev(x) - peak(x)); e > m {
				m = e
			}
		}
		return m
	}

	t := report.NewTable(
		"§7 extension — adaptive (dense gp2idx prefix) vs regular (compact) sparse grid, localized peak, d=2",
		"grid", "points", "memory", "hash layout (modeled)", "max error")
	for _, lvl := range []int{4, 6, 8} {
		desc, err := core.NewDescriptor(dim, lvl)
		if err != nil {
			return err
		}
		g := core.NewGrid(desc)
		g.Fill(peak)
		hier.Iterative(g)
		t.AddRow(fmt.Sprintf("regular level %d", lvl),
			fmt.Sprintf("%d", desc.Size()),
			report.Bytes(g.MemoryBytes()),
			report.Bytes(hashBytesPerPoint*desc.Size()),
			fmt.Sprintf("%.2e", maxErr(func(x []float64) float64 { return eval.Iterative(g, x) })))
	}
	ag, err := adaptive.New(dim, 3, 12, peak)
	if err != nil {
		return err
	}
	for r := 0; r < 14; r++ {
		if ag.Refine(2e-4, 600) == 0 {
			break
		}
	}
	ex, err := ag.ExportCompact()
	if err != nil {
		return err
	}
	t.AddRow(fmt.Sprintf("adaptive (surplus-driven, level-%d prefix)", ex.Level()),
		fmt.Sprintf("%d", ag.Points()),
		report.Bytes(ag.MemoryBytes()),
		report.Bytes(hashBytesPerPoint*int64(ag.Points())),
		fmt.Sprintf("%.2e", maxErr(ag.Evaluate)))
	t.Note = fmt.Sprintf("adaptivity buys points-to-accuracy on localized features (Sec. 7). The adaptive grid holds "+
		"the whole gp2idx prefix of its deepest level group, %d slots at 9 B each (surplus and state byte), "+
		"the array its export allocates anyway; the hash layout would hold only its points, at %d B each",
		ex.Size(), hashBytesPerPoint)
	emit(p, t)
	return nil
}
