package compactsg

import (
	"math"
	"testing"

	"compactsg/internal/workload"
)

// Edge-case behavior of the public EvaluateBatch contract: empty
// batches, caller-provided and nil out slices, out-of-domain points
// (clamped, matching Evaluate), and dimension mismatches.

func newCompressed(t *testing.T, dim, level int, opts ...Option) *Grid {
	t.Helper()
	g, err := New(dim, level, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(workload.Parabola.F)
	return g
}

func TestEvaluateBatchEmpty(t *testing.T) {
	g := newCompressed(t, 3, 4)
	out, err := g.EvaluateBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("nil batch returned %d values", len(out))
	}
	out, err = g.EvaluateBatch([][]float64{}, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out %v err %v", out, err)
	}
	// Parallel configurations must handle empty input too.
	gb := newCompressed(t, 3, 4, WithWorkers(4))
	if out, err := gb.EvaluateBatch(nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("parallel empty batch: out %v err %v", out, err)
	}
}

func TestEvaluateBatchNilAndProvidedOut(t *testing.T) {
	g := newCompressed(t, 2, 5)
	xs := workload.Points(3, 17, 2)

	fresh, err := g.EvaluateBatch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(xs) {
		t.Fatalf("nil out: got %d values, want %d", len(fresh), len(xs))
	}

	buf := make([]float64, len(xs))
	reused, err := g.EvaluateBatch(xs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &buf[0] {
		t.Error("provided out slice was not reused")
	}
	for k := range xs {
		if fresh[k] != reused[k] {
			t.Fatalf("point %d: nil-out %g != provided-out %g", k, fresh[k], reused[k])
		}
		want, _ := g.Evaluate(xs[k])
		if math.Abs(fresh[k]-want) > 1e-12 {
			t.Fatalf("point %d: batch %g != single %g", k, fresh[k], want)
		}
	}

	// A short out is an error, not a panic.
	if got, err := g.EvaluateBatch(xs, make([]float64, len(xs)-1)); err == nil {
		t.Fatalf("short out: got %d values and no error", len(got))
	}
	// A long out comes back cut to the batch, with its tail untouched.
	long := make([]float64, len(xs)+3)
	long[len(xs)] = -1
	got, err := g.EvaluateBatch(xs, long)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) || &got[0] != &long[0] {
		t.Fatalf("long out: got %d values (want %d, in the provided slice)", len(got), len(xs))
	}
	for k := range xs {
		if got[k] != fresh[k] {
			t.Fatalf("long out: point %d = %g, want %g", k, got[k], fresh[k])
		}
	}
	if long[len(xs)] != -1 {
		t.Error("long out: value past the batch was overwritten")
	}
}

func TestEvaluateBatchOutOfDomainClamps(t *testing.T) {
	g := newCompressed(t, 2, 5)
	// Coordinates outside [0,1] are clamped into the boundary cell by
	// the iterative kernel; batch and single-point paths must agree,
	// in every execution configuration.
	xs := [][]float64{
		{-0.5, 0.5},
		{0.5, 1.5},
		{2, -3},
		{1, 0}, // exactly on the boundary: interpolant vanishes
	}
	want := make([]float64, len(xs))
	for k, x := range xs {
		want[k], _ = g.Evaluate(x)
	}
	if v := want[3]; v != 0 {
		t.Fatalf("boundary value = %g, want 0 (zero-boundary grid)", v)
	}
	for _, opts := range [][]Option{
		nil,
		{WithWorkers(3)},
		{WithWorkers(0)},
		{WithWorkers(4)},
	} {
		gc := newCompressed(t, 2, 5, opts...)
		out, err := gc.EvaluateBatch(xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range xs {
			if math.Abs(out[k]-want[k]) > 1e-12 {
				t.Fatalf("opts %v point %d: %g, want %g", opts, k, out[k], want[k])
			}
		}
	}
}

func TestEvaluateBatchDimMismatch(t *testing.T) {
	g := newCompressed(t, 3, 4)
	xs := [][]float64{
		{0.5, 0.5, 0.5},
		{0.5, 0.5}, // short point in the middle of the batch
		{0.5, 0.5, 0.5},
	}
	if _, err := g.EvaluateBatch(xs, nil); err == nil {
		t.Fatal("dim mismatch not rejected")
	}
	if _, err := g.EvaluateBatch([][]float64{{0.1, 0.2, 0.3, 0.4}}, nil); err == nil {
		t.Fatal("oversized point not rejected")
	}
	if _, err := g.EvaluateBatch([][]float64{nil}, nil); err == nil {
		t.Fatal("nil point not rejected")
	}
}

func TestEvaluateBatchRequiresCompressed(t *testing.T) {
	g, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateBatch(workload.Points(1, 3, 2), nil); err == nil {
		t.Fatal("EvaluateBatch on a nodal grid not rejected")
	}
}
