package main

import (
	"fmt"
	"math"

	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

// runPaperScale exercises the library at the paper's headline
// configuration — d=10, level 11, 127,574,017 points (§1/§6) — end to
// end on the compact structure: fill, hierarchize, evaluate, verify.
// The comparison structures cannot be built at this size on a laptop
// (Fig. 8: 3–20 GB), which is the paper's point; the compact grid is
// one contiguous gigabyte.
func runPaperScale(p params) error {
	fn, err := workload.ByName(p.fn)
	if err != nil {
		return err
	}
	const dim, level = 10, 11
	desc, err := core.NewDescriptor(dim, level)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("paper scale — d=%d, level %d: %d points (%s)", dim, level, desc.Size(), report.Bytes(desc.Size()*8)),
		"stage", "result")

	g := core.NewGrid(desc)
	fill := report.MeasureSeconds(func() { g.Fill(fn.F) })
	t.AddRow("fill (sample f at every point)", report.Seconds(fill))

	hierSec := report.MeasureSeconds(func() { hier.Parallel(g, p.maxWorkers) })
	t.AddRow(fmt.Sprintf("hierarchize (compress, %d workers)", p.maxWorkers), report.Seconds(hierSec))
	t.AddRow("  per point per dimension", report.Seconds(hierSec/float64(desc.Size())/dim))

	xs := workload.Points(p.seed, 100, dim)
	out := make([]float64, len(xs))
	evalSec := report.MeasureSeconds(func() { eval.Batch(g, xs, out, eval.Options{Workers: p.maxWorkers, BlockSize: 1}) })
	t.AddRow(fmt.Sprintf("evaluate %d points (decompress)", len(xs)), report.Seconds(evalSec))
	t.AddRow("  per evaluation", report.Seconds(evalSec/float64(len(xs))))

	// Verify: the interpolant reproduces f at a sample of grid points
	// and approximates it between them.
	maxNodal, maxMid := 0.0, 0.0
	l := make([]int32, dim)
	i := make([]int32, dim)
	x := make([]float64, dim)
	for k := int64(0); k < 50; k++ {
		idx := (k*2654435761 + 12345) % desc.Size()
		desc.Idx2GP(idx, l, i)
		core.Coords(l, i, x)
		if e := math.Abs(eval.Iterative(g, x) - fn.F(x)); e > maxNodal {
			maxNodal = e
		}
	}
	for _, q := range xs[:50] {
		if e := math.Abs(eval.Iterative(g, q) - fn.F(q)); e > maxMid {
			maxMid = e
		}
	}
	t.AddRow("max error at 50 random grid points", fmt.Sprintf("%.2e (must be ≈0)", maxNodal))
	t.AddRow("max error at 50 random interior points", fmt.Sprintf("%.2e", maxMid))
	if maxNodal > 1e-9 {
		return fmt.Errorf("paperscale: interpolation not exact at grid points (%g)", maxNodal)
	}
	t.Note = "the four comparison structures would need 3.4–20 GB here (Fig. 8) and cannot be materialized on this host"
	emit(p, t)
	return nil
}
