package adaptive

import (
	"math"
	"math/rand"
	"testing"

	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/workload"
)

// committedMap returns the committed surpluses keyed by gp2idx.
func (g *Grid) committedMap() map[int64]float64 {
	m := make(map[int64]float64)
	for k, s := range g.state {
		if s >= committed {
			m[int64(k)] = g.surplus[k]
		}
	}
	return m
}

// peak is smooth but sharply localized: the case where adaptivity pays.
func peak(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		d := v - 0.3
		s += d * d
	}
	w := 1.0
	for _, v := range x {
		w *= 4 * v * (1 - v)
	}
	return w * math.Exp(-120*s)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 0, 6, peak); err == nil {
		t.Error("initial level 0 accepted")
	}
	if _, err := New(2, 7, 6, peak); err == nil {
		t.Error("initial > max accepted")
	}
	if _, err := New(0, 2, 6, peak); err == nil {
		t.Error("dim 0 accepted")
	}
}

func TestInitialGridMatchesRegular(t *testing.T) {
	// Before any refinement the adaptive grid IS the regular grid: same
	// point count, identical interpolant.
	for _, c := range []struct{ d, n int }{{1, 4}, {2, 4}, {3, 3}} {
		f := workload.Parabola.F
		ag, err := New(c.d, c.n, c.n+2, f)
		if err != nil {
			t.Fatal(err)
		}
		desc := core.MustDescriptor(c.d, c.n)
		if int64(ag.Points()) != desc.Size() {
			t.Fatalf("d=%d: %d points, regular grid has %d", c.d, ag.Points(), desc.Size())
		}
		rg := core.NewGrid(desc)
		rg.Fill(f)
		hier.Iterative(rg)
		rng := rand.New(rand.NewSource(3))
		for k := 0; k < 60; k++ {
			x := make([]float64, c.d)
			for t2 := range x {
				x[t2] = rng.Float64()
			}
			a := ag.Evaluate(x)
			b := eval.Iterative(rg, x)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("d=%d at %v: adaptive %g vs regular %g", c.d, x, a, b)
			}
		}
	}
}

func TestSurplusesMatchRegularHierarchization(t *testing.T) {
	// The per-point surpluses of the unrefined adaptive grid equal the
	// hierarchical coefficients of the regular grid.
	f := workload.SineProduct.F
	ag, err := New(2, 4, 6, f)
	if err != nil {
		t.Fatal(err)
	}
	desc := core.MustDescriptor(2, 4)
	rg := core.NewGrid(desc)
	rg.Fill(f)
	hier.Iterative(rg)
	surplus := ag.committedMap()
	desc.VisitPoints(func(idx int64, l, i []int32) {
		key := ag.desc.GP2Idx(l, i)
		a, ok := surplus[key]
		if !ok {
			t.Fatalf("point %v %v missing from adaptive grid", l, i)
		}
		if math.Abs(a-rg.Data[idx]) > 1e-12 {
			t.Fatalf("surplus at %v %v: %g want %g", l, i, a, rg.Data[idx])
		}
	})
}

func TestInterpolatesNodalValuesAfterRefinement(t *testing.T) {
	ag, err := New(2, 3, 8, peak)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		ag.Refine(1e-3, 200)
	}
	// Every stored point must be reproduced exactly.
	l := make([]int32, 2)
	i := make([]int32, 2)
	x := make([]float64, 2)
	for key := range ag.committedMap() {
		ag.desc.Idx2GP(key, l, i)
		core.Coords(l, i, x)
		if got := ag.Evaluate(x); math.Abs(got-peak(x)) > 1e-10 {
			t.Fatalf("nodal value at %v: %g want %g", x, got, peak(x))
		}
	}
}

func TestClosureInvariant(t *testing.T) {
	ag, err := New(3, 2, 7, peak)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		ag.Refine(1e-4, 300)
	}
	l := make([]int32, 3)
	i := make([]int32, 3)
	surplus := ag.committedMap()
	for key := range surplus {
		ag.desc.Idx2GP(key, l, i)
		for t2 := 0; t2 < 3; t2++ {
			for _, dir := range []core.ParentDir{core.LeftParent, core.RightParent} {
				pl, pi, ok := core.Parent1D(l[t2], i[t2], dir)
				if !ok {
					continue
				}
				sl, si := l[t2], i[t2]
				l[t2], i[t2] = pl, pi
				if _, present := surplus[ag.desc.GP2Idx(l, i)]; !present {
					t.Fatalf("closure violated: parent of %v %v in dim %d missing", l, i, t2)
				}
				l[t2], i[t2] = sl, si
			}
		}
	}
}

func TestRefinementImprovesAccuracyPerPoint(t *testing.T) {
	// For the localized peak, surplus-driven refinement must reach a
	// lower error than a regular grid of comparable size.
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 400)
	for k := range pts {
		pts[k] = []float64{rng.Float64(), rng.Float64()}
	}
	maxErr := func(ev func([]float64) float64) float64 {
		m := 0.0
		for _, x := range pts {
			if e := math.Abs(ev(x) - peak(x)); e > m {
				m = e
			}
		}
		return m
	}

	ag, err := New(2, 3, 10, peak)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		if ag.Refine(5e-4, 400) == 0 {
			break
		}
	}
	adaptiveErr := maxErr(ag.Evaluate)

	// A regular grid with at least as many points.
	level := 3
	var rg *core.Grid
	for {
		desc := core.MustDescriptor(2, level)
		if desc.Size() >= int64(ag.Points()) || level >= 10 {
			rg = core.NewGrid(desc)
			break
		}
		level++
	}
	rg.Fill(peak)
	hier.Iterative(rg)
	regularErr := maxErr(func(x []float64) float64 { return eval.Iterative(rg, x) })

	if adaptiveErr >= regularErr {
		t.Errorf("adaptive (%d pts, err %.2e) not better than regular (%d pts, err %.2e)",
			ag.Points(), adaptiveErr, rg.Size(), regularErr)
	}
}

func TestRefineRespectsCapsAndConverges(t *testing.T) {
	ag, err := New(2, 2, 5, workload.Parabola.F)
	if err != nil {
		t.Fatal(err)
	}
	added := ag.Refine(1e-12, 10)
	if added > 10+8 { // cap plus one candidate's closure spillover
		t.Errorf("Refine added %d points, cap was 10", added)
	}
	// With a huge threshold nothing refines.
	if got := ag.Refine(1e9, 100); got != 0 {
		t.Errorf("Refine with huge eps added %d points", got)
	}
	// Exhaustive refinement stops at the level cap.
	total := 0
	for r := 0; r < 50; r++ {
		n := ag.Refine(0, 10000)
		total += n
		if n == 0 {
			break
		}
	}
	full := core.MustDescriptor(2, 5).Size()
	if int64(ag.Points()) > full {
		t.Errorf("adaptive grid exceeded its enclosing regular grid: %d > %d", ag.Points(), full)
	}
}

func TestMemoryModel(t *testing.T) {
	// The model holds the whole prefix of its deepest level group: 8
	// bytes of surplus and 1 state byte per slot. A captive grid commits
	// every point it inserts, so that prefix is the array its export
	// allocates.
	ag, err := New(2, 3, 6, peak)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		cg, err := ag.ExportCompact()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ag.MemoryBytes(), 9*cg.Size(); got != want {
			t.Fatalf("round %d: MemoryBytes = %d, want 9 B for each of the %d slots of the level-%d prefix",
				r, got, cg.Size(), cg.Level())
		}
		ag.Refine(1e-3, 100)
	}
	// An observed grid's prefix also covers the points awaiting values:
	// the seeds of level 3, though nothing is committed yet.
	og, err := NewObserved(2, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := og.MemoryBytes(), 9*core.MustDescriptor(2, 3).Size(); got != want {
		t.Fatalf("observed seed grid: MemoryBytes = %d, want %d", got, want)
	}
}

func TestMaxSurplusAboveLevel(t *testing.T) {
	ag, err := New(1, 4, 6, func(x []float64) float64 { return x[0] * (1 - x[0]) })
	if err != nil {
		t.Fatal(err)
	}
	all := ag.MaxSurplusAboveLevel(0)
	deep := ag.MaxSurplusAboveLevel(2)
	if all <= 0 || deep <= 0 || deep > all {
		t.Errorf("surplus indicator: all=%g deep=%g", all, deep)
	}
	// Smooth function: deep surpluses decay.
	if deep > all/2 {
		t.Errorf("deep surpluses should decay for a smooth function: %g vs %g", deep, all)
	}
}

func TestCoarsenRemovesOnlySafeLeaves(t *testing.T) {
	ag, err := New(2, 4, 8, workload.Parabola.F)
	if err != nil {
		t.Fatal(err)
	}
	// Parabola surpluses at the leaf group (|l|₁=3) top out around
	// 4·2^-8 ≈ 0.016, so eps = 0.02 removes leaves but keeps the rest.
	const eps = 0.02
	before := ag.Points()
	removed, bound := ag.Coarsen(eps)
	if removed <= 0 {
		t.Fatal("smooth function at level 4 must have removable small-surplus leaves")
	}
	if bound <= 0 || bound > float64(removed)*eps {
		t.Errorf("bound %g implausible for %d removals at eps %g", bound, removed, eps)
	}
	if ag.Points() != before-removed {
		t.Errorf("points %d, expected %d", ag.Points(), before-removed)
	}
	// Closure must survive coarsening.
	l := make([]int32, 2)
	i := make([]int32, 2)
	surplus := ag.committedMap()
	for key := range surplus {
		ag.desc.Idx2GP(key, l, i)
		for t2 := 0; t2 < 2; t2++ {
			for _, dir := range []core.ParentDir{core.LeftParent, core.RightParent} {
				pl, pi, ok := core.Parent1D(l[t2], i[t2], dir)
				if !ok {
					continue
				}
				sl, si := l[t2], i[t2]
				l[t2], i[t2] = pl, pi
				if _, present := surplus[ag.desc.GP2Idx(l, i)]; !present {
					t.Fatalf("closure broken after coarsening: ancestor of %v %v missing", l, i)
				}
				l[t2], i[t2] = sl, si
			}
		}
	}
	// Interpolation error stays within the bound at random points.
	rng := rand.New(rand.NewSource(77))
	for k := 0; k < 100; k++ {
		x := []float64{rng.Float64(), rng.Float64()}
		full, err := New(2, 4, 8, workload.Parabola.F)
		_ = err
		if e := math.Abs(ag.Evaluate(x) - full.Evaluate(x)); e > bound+1e-12 {
			t.Fatalf("coarsening error %g exceeds bound %g at %v", e, bound, x)
		}
	}
	// The root survives even with an enormous threshold.
	for r := 0; r < 20; r++ {
		if n, _ := ag.Coarsen(math.Inf(1)); n == 0 {
			break
		}
	}
	if ag.Points() < 1 {
		t.Error("coarsening removed the root")
	}
}

func TestCoarsenRefineRoundTrip(t *testing.T) {
	// Refine onto a peak, coarsen with eps=0 (removes nothing), then
	// coarsen aggressively and re-refine: the grid re-converges.
	ag, err := New(2, 3, 9, peak)
	if err != nil {
		t.Fatal(err)
	}
	ag.Refine(1e-3, 500)
	if n, _ := ag.Coarsen(0); n != 0 {
		t.Error("eps=0 coarsening must remove nothing")
	}
	ag.Coarsen(1e-2)
	for r := 0; r < 6; r++ {
		ag.Refine(1e-3, 500)
	}
	x := []float64{0.3, 0.3}
	if e := math.Abs(ag.Evaluate(x) - peak(x)); e > 5e-3 {
		t.Errorf("after coarsen+refine, error %g at the peak", e)
	}
}

func TestExportCompactMatchesAdaptiveInterpolant(t *testing.T) {
	// The exported regular grid carries the committed surpluses at their
	// (level, index) slots with absent points at zero, so its regular
	// interpolant is pointwise identical to the adaptive one.
	ag, err := New(2, 2, 7, peak)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		ag.Refine(1e-3, 300)
	}
	cg, err := ag.ExportCompact()
	if err != nil {
		t.Fatal(err)
	}
	if lvl := cg.Desc().Level(); lvl < 2 || lvl > 7 {
		t.Fatalf("export level %d outside [initial, max]", lvl)
	}
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 2)
	for k := 0; k < 200; k++ {
		x[0], x[1] = rng.Float64(), rng.Float64()
		a := ag.Evaluate(x)
		b := eval.Iterative(cg, x)
		if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
			t.Fatalf("at %v: adaptive %g vs exported %g", x, a, b)
		}
	}
	// An empty observed grid exports the trivial level-1 zero grid.
	og, _ := NewObserved(2, 2, 5)
	zg, err := og.ExportCompact()
	if err != nil {
		t.Fatal(err)
	}
	if zg.Desc().Level() != 1 {
		t.Fatalf("empty export level %d, want 1", zg.Desc().Level())
	}
	if got := eval.Iterative(zg, []float64{0.3, 0.7}); got != 0 {
		t.Fatalf("empty export evaluates to %g", got)
	}
}
