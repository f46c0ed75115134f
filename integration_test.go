package compactsg_test

// Cross-module integration tests: every path from function to value —
// CPU iterative, CPU recursive on each comparison store, the GPU
// simulator kernels, the combination technique, and the adaptive grid —
// must agree on the same interpolant; and the full Fig. 1 pipeline
// (simulate → compress → store → load → decompress) must round-trip.

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"compactsg"
	"compactsg/internal/adaptive"
	"compactsg/internal/combi"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/fullgrid"
	"compactsg/internal/gpusim"
	"compactsg/internal/grids"
	"compactsg/internal/hier"
	"compactsg/internal/kernels"
	"compactsg/internal/workload"
)

func TestAllEvaluationPathsAgree(t *testing.T) {
	const dim, level = 3, 5
	f := workload.Gaussian.F
	xs := workload.Points(101, 40, dim)

	// Reference: compact grid, iterative algorithms.
	desc := core.MustDescriptor(dim, level)
	ref := core.NewGrid(desc)
	ref.Fill(f)
	hier.Iterative(ref)
	want := eval.Batch(ref, xs, nil, eval.Options{})

	// Path 2: every comparison store with the recursive algorithms.
	for _, kind := range grids.Kinds {
		s := grids.New(kind, desc)
		grids.Fill(s, f)
		hier.Recursive(s)
		for k, x := range xs {
			if got := eval.Recursive(s, x); math.Abs(got-want[k]) > 1e-12 {
				t.Fatalf("%v at %v: %g want %g", kind, x, got, want[k])
			}
		}
	}

	// Path 3: GPU-simulated hierarchization + evaluation.
	gg := core.NewGrid(desc)
	gg.Fill(f)
	if _, _, err := kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.TeslaC1060()), gg, kernels.Options{}); err != nil {
		t.Fatal(err)
	}
	gpuOut := make([]float64, len(xs))
	if _, _, err := kernels.EvaluateGPU(gpusim.NewDevice(gpusim.TeslaC1060()), gg, xs, gpuOut, kernels.Options{}); err != nil {
		t.Fatal(err)
	}
	for k := range xs {
		if gpuOut[k] != want[k] {
			t.Fatalf("GPU at %v: %g want %g (must be bit-identical)", xs[k], gpuOut[k], want[k])
		}
	}

	// Path 4: Fermi device — caches must not change results.
	gf := core.NewGrid(desc)
	gf.Fill(f)
	if _, _, err := kernels.HierarchizeGPU(gpusim.NewDevice(gpusim.FermiC2050()), gf, kernels.Options{BlockSize: 192}); err != nil {
		t.Fatal(err)
	}
	for k := range gf.Data {
		if gf.Data[k] != ref.Data[k] {
			t.Fatalf("Fermi hierarchization differs at %d", k)
		}
	}

	// Path 5: combination technique (equal up to roundoff).
	sol, err := combi.New(dim, level)
	if err != nil {
		t.Fatal(err)
	}
	sol.Fill(f, 2)
	for k, x := range xs {
		if got := sol.Evaluate(x); math.Abs(got-want[k]) > 1e-10 {
			t.Fatalf("combination at %v: %g want %g", x, got, want[k])
		}
	}

	// Path 6: unrefined adaptive grid equals the regular grid.
	ag, err := adaptive.New(dim, level, level+2, f)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range xs {
		if got := ag.Evaluate(x); math.Abs(got-want[k]) > 1e-10 {
			t.Fatalf("adaptive at %v: %g want %g", x, got, want[k])
		}
	}
}

func TestFig1PipelineEndToEnd(t *testing.T) {
	// Simulation: a full grid holds the raw field.
	const dim, level = 3, 5
	f := workload.SineProduct.F
	full, err := fullgrid.NewIsotropic(dim, level)
	if err != nil {
		t.Fatal(err)
	}
	full.Fill(f)

	// Compress: select sparse points, hierarchize via the public API.
	g, err := compactsg.New(dim, level, compactsg.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := full.ToSparse(g.Raw().Desc())
	if err != nil {
		t.Fatal(err)
	}
	copy(g.Raw().Data, sg.Data)
	if err := g.CompressValues(); err != nil {
		t.Fatal(err)
	}

	// Storage: serialize and reload.
	var store bytes.Buffer
	if err := g.Save(&store); err != nil {
		t.Fatal(err)
	}
	if int64(store.Len()) > full.MemoryBytes()/4 {
		t.Errorf("compressed artifact (%d B) not much smaller than the full grid (%d B)", store.Len(), full.MemoryBytes())
	}
	loaded, err := compactsg.Load(&store, compactsg.WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}

	// Visualization: decompress a slice; values match the simulation at
	// grid points exactly and approximately in between.
	xs := workload.GridLine(dim, 0, 33, 0.5)
	vals, err := loaded.EvaluateBatch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range xs {
		if math.Abs(vals[k]-f(x)) > 0.05 {
			t.Errorf("slice point %v: %g want ≈ %g", x, vals[k], f(x))
		}
	}
	// Decompress fully: nodal values restored.
	if err := loaded.Decompress(); err != nil {
		t.Fatal(err)
	}
	v, err := loaded.At([]int32{0, 0, 0}, []int32{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-f([]float64{0.5, 0.5, 0.5})) > 1e-12 {
		t.Errorf("restored center value %g", v)
	}
}

func TestQuickCompressEvaluateIsProjection(t *testing.T) {
	// Property: compressing the interpolant's own nodal values is
	// idempotent — interpolation is a projection. Randomized over
	// coefficients via testing/quick.
	desc := core.MustDescriptor(2, 4)
	check := func(seed int64) bool {
		g := core.NewGrid(desc)
		rng := newRand(seed)
		for k := range g.Data {
			g.Data[k] = rng() // random surpluses
		}
		// Sample the interpolant at grid points, re-hierarchize.
		nodal := core.NewGrid(desc)
		x := make([]float64, 2)
		desc.VisitPoints(func(idx int64, l, i []int32) {
			core.Coords(l, i, x)
			nodal.Data[idx] = eval.Iterative(g, x)
		})
		hier.Iterative(nodal)
		for k := range nodal.Data {
			if math.Abs(nodal.Data[k]-g.Data[k]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic generator for quick properties.
func newRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 250
	}
}

func TestPublicAPIAgainstInternalReference(t *testing.T) {
	f := workload.Parabola.F
	g, err := compactsg.New(4, 5, compactsg.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(f)
	ref := core.NewGrid(core.MustDescriptor(4, 5))
	ref.Fill(f)
	hier.Iterative(ref)
	for k := range ref.Data {
		if g.Raw().Data[k] != ref.Data[k] {
			t.Fatalf("public API coefficients differ at %d", k)
		}
	}
}

func TestBoundaryAndInteriorConsistency(t *testing.T) {
	// For a zero-boundary function the extended grid and the plain grid
	// interpolate identically.
	f := workload.Parabola.F
	plain, err := compactsg.New(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain.Compress(f)
	ext, err := compactsg.NewWithBoundary(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ext.Compress(f)
	for _, x := range workload.Points(7, 50, 2) {
		a, _ := plain.Evaluate(x)
		b, _ := ext.Evaluate(x)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("at %v: plain %g vs extended %g", x, a, b)
		}
	}
}
