package adaptive

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"compactsg/internal/basis"
	"compactsg/internal/eval"
)

// feedAll answers every NeedValues request of an observed grid from f
// until nothing is awaiting, committing as it goes. Returns the number
// of observations fed.
func feedAll(t *testing.T, g *Grid, f func(x []float64) float64) int {
	t.Helper()
	fed := 0
	for round := 0; ; round++ {
		need := g.NeedValues(0)
		if len(need) == 0 {
			break
		}
		if round > 64 {
			t.Fatalf("grid still awaiting %d values after %d rounds", len(need), round)
		}
		for _, x := range need {
			if err := g.Observe(x, f(x)); err != nil {
				t.Fatalf("observe %v: %v", x, err)
			}
			fed++
		}
		g.Commit()
	}
	g.Commit()
	return fed
}

func TestObserveOnCaptiveGridRejected(t *testing.T) {
	ag, err := New(2, 2, 5, peak)
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Observe([]float64{0.5, 0.5}, 1); err != ErrCaptive {
		t.Fatalf("Observe on captive grid: err = %v, want ErrCaptive", err)
	}
	if _, _, err := ag.ObserveBatch([][]float64{{0.5, 0.5}}, []float64{1}); err != ErrCaptive {
		t.Fatalf("ObserveBatch on captive grid: err = %v, want ErrCaptive", err)
	}
}

func TestObservedGridMatchesCaptive(t *testing.T) {
	// Feeding an observed grid the same nodal values a captive grid
	// computes itself must produce identical surpluses — the observation
	// path is the same hierarchization, just inverted control flow.
	for _, dim := range []int{1, 2, 3} {
		og, err := NewObserved(dim, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !og.Observed() {
			t.Fatal("Observed() = false on an observation-fed grid")
		}
		feedAll(t, og, peak)
		cg, err := New(dim, 2, 5, peak)
		if err != nil {
			t.Fatal(err)
		}
		if og.Points() != cg.Points() {
			t.Fatalf("dim %d: observed %d points, captive %d", dim, og.Points(), cg.Points())
		}
		observed := og.committedMap()
		for key, a := range cg.committedMap() {
			b, ok := observed[key]
			if !ok {
				t.Fatalf("dim %d: key %d missing from observed grid", dim, key)
			}
			if a != b {
				t.Fatalf("dim %d key %d: surplus %g (observed) vs %g (captive)", dim, key, b, a)
			}
		}
	}
}

func TestObservedRefineLoopMatchesCaptive(t *testing.T) {
	// Interleaving Refine with the observe/commit loop must track the
	// captive grid exactly: same points, same surpluses, round by round.
	og, _ := NewObserved(2, 2, 6)
	cg, _ := New(2, 2, 6, peak)
	feedAll(t, og, peak)
	for r := 0; r < 4; r++ {
		so := og.RefineDetailed(1e-3, 500)
		feedAll(t, og, peak)
		og.Commit()
		sc := cg.RefineDetailed(1e-3, 500)
		if so.Added != sc.Added || so.Capped != sc.Capped {
			t.Fatalf("round %d: observed stats %+v, captive %+v", r, so, sc)
		}
		if got, want := og.Points(), cg.Points(); got != want {
			t.Fatalf("round %d: observed %d points, captive %d", r, got, want)
		}
	}
	observed := og.committedMap()
	for key, a := range cg.committedMap() {
		if b := observed[key]; a != b {
			t.Fatalf("key %d: surplus %g (observed) vs %g (captive)", key, b, a)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	og, _ := NewObserved(2, 2, 5)
	bad := []struct {
		name string
		x    []float64
		y    float64
	}{
		{"wrong dim", []float64{0.5}, 1},
		{"off lattice", []float64{0.5, 1.0 / 3.0}, 1},
		{"boundary zero", []float64{0.0, 0.5}, 1},
		{"boundary one", []float64{0.5, 1.0}, 1},
		{"negative", []float64{-0.25, 0.5}, 1},
		{"nan coord", []float64{math.NaN(), 0.5}, 1},
		{"nan value", []float64{0.5, 0.5}, math.NaN()},
		{"inf value", []float64{0.5, 0.5}, math.Inf(1)},
	}
	for _, c := range bad {
		if err := og.Observe(c.x, c.y); err == nil {
			t.Errorf("%s: Observe(%v, %v) accepted", c.name, c.x, c.y)
		}
	}
	if _, _, err := og.ObserveBatch([][]float64{{0.5, 0.5}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	applied, rejected, err := og.ObserveBatch(
		[][]float64{{0.5, 0.5}, {0.5}, {0.25, 0.5}},
		[]float64{1, 2, 3})
	if err != nil || applied != 2 || rejected != 1 {
		t.Fatalf("batch: applied=%d rejected=%d err=%v, want 2/1/nil", applied, rejected, err)
	}
}

func TestObserveInsertsNewPointWithClosure(t *testing.T) {
	// Observing a point the grid never asked for inserts it plus its
	// hierarchical ancestors; the ancestors surface through NeedValues
	// and the point only commits after they are valued.
	og, _ := NewObserved(1, 1, 5)
	if err := og.Observe([]float64{0.5}, 2.0); err != nil {
		t.Fatal(err)
	}
	og.Commit()
	// 0.8125 = 13/16 is a level-3 (0-based) point: ancestors 0.75, 0.875.
	if err := og.Observe([]float64{0.8125}, 1.0); err != nil {
		t.Fatal(err)
	}
	if n := og.Commit(); n != 0 {
		t.Fatalf("committed %d points with unvalued ancestors", n)
	}
	need := og.NeedValues(0)
	if len(need) != 2 {
		t.Fatalf("NeedValues = %v, want the two ancestors", need)
	}
	// Coarsest first: 0.75 (level 1) before 0.875 (level 2).
	if need[0][0] != 0.75 || need[1][0] != 0.875 {
		t.Fatalf("NeedValues order = %v, want [0.75 0.875]", need)
	}
	f := func(x []float64) float64 { return x[0] * x[0] }
	for _, x := range need {
		og.Observe(x, f(x))
	}
	og.Commit()
	if c, p, a := og.Counts(); p != 0 || a != 0 || c != 4 {
		t.Fatalf("counts after full feed: committed=%d pending=%d awaiting=%d", c, p, a)
	}
	if got := og.Evaluate([]float64{0.8125}); math.Abs(got-1.0) != 0 {
		t.Fatalf("Evaluate(0.8125) = %g, want the observed 1.0", got)
	}
}

func TestReobserveCommittedPointAdjustsInterpolant(t *testing.T) {
	og, _ := NewObserved(2, 3, 6)
	feedAll(t, og, peak)
	x := []float64{0.25, 0.75}
	if err := og.Observe(x, 42.0); err != nil {
		t.Fatal(err)
	}
	if got := og.Evaluate(x); math.Abs(got-42.0) > 1e-12 {
		t.Fatalf("after re-observe, Evaluate(%v) = %g, want 42", x, got)
	}
	// Other committed points keep their nodal values (same-group and
	// coarser points are unaffected by a deeper/same-level adjustment).
	y := []float64{0.5, 0.5}
	if got, want := og.Evaluate(y), peak(y); math.Abs(got-want) > 1e-12 {
		t.Fatalf("unrelated point moved: Evaluate(%v) = %g, want %g", y, got, want)
	}
}

// TestRefineSecondCallDoesZeroWork is the regression test for the
// re-scan bug: Refine used to rebuild and re-sort the candidate list
// from every surplus on every call, so a converged grid still paid
// O(N log N) per round. With the settled set, the second of two
// back-to-back calls with unchanged surpluses examines zero candidates.
func TestRefineSecondCallDoesZeroWork(t *testing.T) {
	ag, err := New(2, 3, 8, peak)
	if err != nil {
		t.Fatal(err)
	}
	first := ag.RefineDetailed(1e-3, 10000)
	if first.Added == 0 {
		t.Fatal("first refinement added nothing; test needs a refining grid")
	}
	// Refine again with the SAME eps: every candidate of the first round
	// is settled, only the newly added points may qualify. Then once
	// more: now nothing may be examined at all.
	second := ag.RefineDetailed(1e-3, 10000)
	for second.Added > 0 {
		second = ag.RefineDetailed(1e-3, 10000)
	}
	final := ag.RefineDetailed(1e-3, 10000)
	if final.Candidates != 0 || final.Added != 0 || final.Committed != 0 {
		t.Fatalf("converged grid still does work: %+v", final)
	}
}

// TestRefineCapBoundary pins the level-cap boundary: a candidate at
// LevelSum == max (0-based) cannot refine — its children would leave
// the descriptor — and must be counted as capped, while a candidate one
// group shallower refines normally.
func TestRefineCapBoundary(t *testing.T) {
	// initialLevel == maxLevel == 3 in 1-D: groups 0, 1, 2 all present
	// (7 points), deepest usable group max = 2.
	f := func(x []float64) float64 { return x[0] * (1 - x[0]) }
	ag, err := New(1, 3, 3, f)
	if err != nil {
		t.Fatal(err)
	}
	if ag.max != 2 {
		t.Fatalf("max = %d, want 2", ag.max)
	}
	st := ag.RefineDetailed(0, 10000)
	// All 7 surpluses are nonzero candidates; the 4 group-2 points sit
	// exactly at LevelSum == max and are capped, the 3 shallower ones
	// have all children present already (full grid) so nothing is added.
	if st.Candidates != 7 {
		t.Fatalf("Candidates = %d, want 7", st.Candidates)
	}
	if st.Capped != 4 {
		t.Fatalf("Capped = %d, want the 4 points at LevelSum == max", st.Capped)
	}
	if st.Added != 0 {
		t.Fatalf("Added = %d on a full grid", st.Added)
	}
	if ag.CappedTotal() != 4 {
		t.Fatalf("CappedTotal = %d, want 4", ag.CappedTotal())
	}
	// Boundary from the other side: with headroom (maxLevel 4) the same
	// group-2 points are NOT capped and refine into group 3.
	ag2, _ := New(1, 3, 4, f)
	st2 := ag2.RefineDetailed(0, 10000)
	if st2.Capped != 0 {
		t.Fatalf("with headroom: Capped = %d, want 0", st2.Capped)
	}
	if st2.Added == 0 {
		t.Fatal("with headroom: nothing refined")
	}
	// Everything is settled either way: the next round is free.
	if again := ag.RefineDetailed(0, 10000); again.Candidates != 0 {
		t.Fatalf("capped points re-examined: %+v", again)
	}
}

// TestEvaluateZeroAlloc pins the serve-blocking allocation bug: an
// early Evaluate allocated three slices per call (plus two more per
// prefix check). Evaluate runs eval.Iterative on pooled scratch and
// must not allocate at steady state.
func TestEvaluateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool")
	}
	ag, err := New(3, 3, 7, peak)
	if err != nil {
		t.Fatal(err)
	}
	ag.Refine(1e-4, 500)
	x := []float64{0.31, 0.29, 0.33}
	for k := 0; k < 10; k++ {
		ag.Evaluate(x)
	}
	if allocs := testing.AllocsPerRun(200, func() { ag.Evaluate(x) }); allocs != 0 {
		t.Fatalf("Evaluate allocates %.1f times per call; the hot path must be allocation-free", allocs)
	}
}

func TestConcurrentObserveRefineEvaluate(t *testing.T) {
	// Race-hunting smoke: writers observing/refining/coarsening while
	// readers evaluate. Values are checked elsewhere; this test exists
	// for -race.
	og, err := NewObserved(2, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, og, peak)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			x := make([]float64, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				x[0], x[1] = rng.Float64(), rng.Float64()
				og.Evaluate(x)
				og.Points()
				og.NeedValues(4)
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 50; round++ {
		og.RefineDetailed(1e-4, 50)
		for _, x := range og.NeedValues(0) {
			og.Observe(x, peak(x))
		}
		og.Commit()
		if round%10 == 9 {
			og.Coarsen(1e-9)
		}
		_ = rng
	}
	close(stop)
	wg.Wait()
}

// bruteEval sums α·Πφ over every committed point directly — no
// traversal, no pruning. Different accumulation order, so it is checked
// with a tolerance rather than bitwise.
func bruteEval(g *Grid, x []float64) float64 {
	l := make([]int32, g.dim)
	i := make([]int32, g.dim)
	sum := 0.0
	for key, a := range g.committedMap() {
		g.desc.Idx2GP(key, l, i)
		p := a
		for t := 0; t < g.dim; t++ {
			p *= basis.Eval1D(l[t], i[t], x[t])
		}
		sum += p
	}
	return sum
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkExportBits asserts that Evaluate is eval.Iterative on the
// export, bit for bit, at random points: the writer's I(x) is what a
// snapshot of ExportCompact serves.
func checkExportBits(t *testing.T, g *Grid, rng *rand.Rand) {
	t.Helper()
	cg, err := g.ExportCompact()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.dim)
	for k := 0; k < 16; k++ {
		for t2 := range x {
			x[t2] = rng.Float64()
		}
		if got, want := g.Evaluate(x), eval.Iterative(cg, x); !sameBits(got, want) {
			t.Fatalf("Evaluate(%v) = %v, eval.Iterative on the export %v (must bit-match)", x, got, want)
		}
		if brute := bruteEval(g, x); math.Abs(g.Evaluate(x)-brute) > 1e-9*(1+math.Abs(brute)) {
			t.Fatalf("Evaluate(%v) = %g, brute-force sum %g", x, g.Evaluate(x), brute)
		}
	}
}

// checkAdaptiveInvariants asserts, for an arbitrary grid state: closure
// of the committed set and of all points, zero surplus in every slot
// without a committed point, and agreement with the hash-map reference
// — the same point in the same state in every slot, equal Counts, equal
// NeedValues order, bit-identical surpluses and I(x) — plus the export
// bit-match.
func checkAdaptiveInvariants(t *testing.T, g *Grid, ref *refGrid, rng *rand.Rand) {
	t.Helper()
	l := make([]int32, g.dim)
	i := make([]int32, g.dim)
	for k, s := range g.state {
		key := int64(k)
		if want := ref.stateOf(key); s != want {
			t.Fatalf("slot %d in state %d, reference %d", key, s, want)
		}
		if s < committed {
			if g.surplus[k] != 0 {
				t.Fatalf("slot %d in state %d holds surplus %g", key, s, g.surplus[k])
			}
			if s == absent {
				continue
			}
		} else if !sameBits(g.surplus[k], ref.surplus[key]) {
			t.Fatalf("slot %d: surplus %v, reference %v (must bit-match)", key, g.surplus[k], ref.surplus[key])
		}
		g.desc.Idx2GP(key, l, i)
		for t2 := 0; t2 < g.dim; t2++ {
			for _, dir := range dirs {
				p, ok := g.desc.ParentIdx(l, i, t2, dir)
				if !ok {
					continue
				}
				if s >= committed && g.state[p] < committed {
					t.Fatalf("committed-set closure violated: parent %d of %d not committed", p, key)
				}
				if g.state[p] == absent {
					t.Fatalf("closure violated: parent %d of %d absent", p, key)
				}
			}
		}
	}
	if ref.points() != g.Points() {
		t.Fatalf("%d points, reference %d (some beyond the %d-slot prefix)", g.Points(), ref.points(), len(g.state))
	}
	c, p, a := g.Counts()
	if c != len(ref.surplus) || p != len(ref.pending) || a != len(ref.awaiting) {
		t.Fatalf("Counts = %d/%d/%d, reference %d/%d/%d", c, p, a, len(ref.surplus), len(ref.pending), len(ref.awaiting))
	}
	if got, want := g.NeedValues(0), ref.needValues(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("NeedValues = %v, reference %v", got, want)
	}
	x := make([]float64, g.dim)
	for k := 0; k < 16; k++ {
		for t2 := range x {
			x[t2] = rng.Float64()
		}
		if got, want := g.Evaluate(x), ref.evaluate(x); !sameBits(got, want) {
			t.Fatalf("Evaluate(%v) = %v, reference %v (must bit-match)", x, got, want)
		}
	}
	checkExportBits(t, g, rng)
}

// runAdaptiveOps drives a random Observe/Refine/Coarsen/Commit sequence
// from the seed through an observed grid and the hash-map reference,
// requiring equal results op by op, and Refine/Coarsen through a captive
// grid of the same shape; it checks invariants along the way.
func runAdaptiveOps(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	dim := 1 + rng.Intn(3)
	maxLevel := 4 + rng.Intn(3)
	initLevel := 1 + rng.Intn(2)
	og, err := NewObserved(dim, initLevel, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefObserved(dim, initLevel, maxLevel)
	cg, err := New(dim, initLevel, maxLevel, peak)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dim)
	// randPoint fills x with a random sparse-grid point: levels summing
	// to at most max (0-based), odd index per dimension.
	randPoint := func() {
		remaining := maxLevel - 1
		for t2 := range x {
			lv := rng.Intn(remaining + 1)
			remaining -= lv
			idx := 2*rng.Intn(1<<uint(lv)) + 1
			x[t2] = float64(idx) / float64(int64(1)<<uint(lv+1))
		}
	}
	observe := func(p []float64, y float64) {
		err, refErr := og.Observe(p, y), ref.observe(p, y)
		if err != nil || refErr != nil {
			t.Fatalf("observe %v: %v (reference %v)", p, err, refErr)
		}
	}
	ops := 20 + rng.Intn(20)
	for op := 0; op < ops; op++ {
		switch rng.Intn(5) {
		case 0, 1: // observe a random lattice point (may insert)
			randPoint()
			observe(x, rng.NormFloat64())
		case 2: // answer what the grid asked for
			for _, p := range og.NeedValues(8) {
				observe(p, rng.NormFloat64())
			}
			if n, want := og.Commit(), ref.commit(); n != want {
				t.Fatalf("Commit = %d, reference %d", n, want)
			}
		case 3:
			eps := []float64{0, 1e-3, 0.1}[rng.Intn(3)]
			maxNew := 1 + rng.Intn(64)
			if st, want := og.RefineDetailed(eps, maxNew), ref.refine(eps, maxNew); st != want {
				t.Fatalf("RefineDetailed(%g, %d) = %+v, reference %+v", eps, maxNew, st, want)
			}
			cg.RefineDetailed(eps, maxNew)
		case 4:
			eps := []float64{0, 1e-2}[rng.Intn(2)]
			n, bound := og.Coarsen(eps)
			if wantN, wantBound := ref.coarsen(eps); n != wantN || !sameBits(bound, wantBound) {
				t.Fatalf("Coarsen(%g) = %d, %v; reference %d, %v", eps, n, bound, wantN, wantBound)
			}
			cg.Coarsen(eps)
		}
		if op%8 == 7 {
			checkAdaptiveInvariants(t, og, ref, rng)
			checkExportBits(t, cg, rng)
		}
	}
	og.Commit()
	ref.commit()
	checkAdaptiveInvariants(t, og, ref, rng)
	checkExportBits(t, cg, rng)
}

// TestAdaptiveInvariantsProperty replays a fixed set of seeds through
// the random-op driver on every plain and -race test run.
func TestAdaptiveInvariantsProperty(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		runAdaptiveOps(t, seed)
	}
}

// FuzzAdaptiveInvariants is the coverage-guided version: the fuzzer
// hunts op sequences that break closure, agreement with the reference
// or the export bit-match.
func FuzzAdaptiveInvariants(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runAdaptiveOps(t, seed)
	})
}
