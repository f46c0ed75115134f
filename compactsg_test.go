package compactsg

import (
	"bytes"
	"math"
	"testing"

	"compactsg/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := New(3, 4, WithWorkers(0)); err != nil {
		t.Errorf("workers 0 (auto) rejected: %v", err)
	}
	if _, err := New(3, 4, WithWorkers(-1)); err == nil {
		t.Error("workers -1 accepted")
	}
}

func TestPaperGridSizes(t *testing.T) {
	g, err := New(10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() != 127574017 {
		t.Errorf("d=10 level=11: %d points, paper says 127,574,017", g.Points())
	}
	if g.MemoryBytes() != 127574017*8 {
		t.Errorf("memory %d", g.MemoryBytes())
	}
}

func TestCompressEvaluateRoundTrip(t *testing.T) {
	g, err := New(3, 5, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	f := workload.Parabola.F
	g.Compress(f)
	if !g.Compressed() {
		t.Fatal("Compress did not mark state")
	}
	for _, x := range workload.Points(1, 100, 3) {
		got, err := g.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-f(x)) > 0.05 {
			t.Errorf("interpolation at %v: %g want ≈ %g", x, got, f(x))
		}
	}
}

func TestEvaluateRequiresCompressed(t *testing.T) {
	g, _ := New(2, 3)
	if _, err := g.Evaluate([]float64{0.5, 0.5}); err == nil {
		t.Error("Evaluate on nodal grid accepted")
	}
	if _, err := g.EvaluateBatch([][]float64{{0.5, 0.5}}, nil); err == nil {
		t.Error("EvaluateBatch on nodal grid accepted")
	}
	g.Compress(workload.Parabola.F)
	if _, err := g.Evaluate([]float64{0.5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := g.EvaluateBatch([][]float64{{0.5}}, nil); err == nil {
		t.Error("batch dimension mismatch accepted")
	}
}

func TestDecompressRestoresNodal(t *testing.T) {
	g, _ := New(2, 4)
	f := workload.SineProduct.F
	g.Compress(f)
	if err := g.Decompress(); err != nil {
		t.Fatal(err)
	}
	if g.Compressed() {
		t.Fatal("Decompress did not clear state")
	}
	// Nodal values restored: check the center point.
	v, err := g.At([]int32{0, 0}, []int32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-f([]float64{0.5, 0.5})) > 1e-12 {
		t.Errorf("restored nodal value %g want %g", v, f([]float64{0.5, 0.5}))
	}
	if err := g.Decompress(); err == nil {
		t.Error("double Decompress accepted")
	}
	if err := g.CompressValues(); err != nil {
		t.Error(err)
	}
	if err := g.CompressValues(); err == nil {
		t.Error("double CompressValues accepted")
	}
}

func TestSetNodalAt(t *testing.T) {
	g, _ := New(2, 3)
	if err := g.SetNodal([]int32{1, 0}, []int32{3, 1}, 2.5); err != nil {
		t.Fatal(err)
	}
	v, err := g.At([]int32{1, 0}, []int32{3, 1})
	if err != nil || v != 2.5 {
		t.Errorf("At = %g, %v", v, err)
	}
	if err := g.SetNodal([]int32{9, 9}, []int32{1, 1}, 0); err == nil {
		t.Error("out-of-grid point accepted")
	}
	if _, err := g.At([]int32{0, 0}, []int32{2, 1}); err == nil {
		t.Error("even index accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, _ := New(3, 4, WithWorkers(2))
	g.Compress(workload.Gaussian.F)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Compressed() || back.Dim() != 3 || back.Level() != 4 {
		t.Fatalf("loaded grid state wrong: compressed=%v dim=%d level=%d", back.Compressed(), back.Dim(), back.Level())
	}
	x := []float64{0.3, 0.6, 0.2}
	a, _ := g.Evaluate(x)
	b, _ := back.Evaluate(x)
	if a != b {
		t.Errorf("loaded grid evaluates differently: %g vs %g", a, b)
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load of empty stream accepted")
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	g, _ := New(4, 4, WithWorkers(3))
	g.Compress(workload.Parabola.F)
	xs := workload.Points(2, 50, 4)
	batch, err := g.EvaluateBatch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range xs {
		single, _ := g.Evaluate(x)
		if batch[k] != single {
			t.Fatalf("batch[%d]=%g, single=%g", k, batch[k], single)
		}
	}
}

func TestBoundaryGridPublicAPI(t *testing.T) {
	g, err := NewWithBoundary(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := workload.Multilinear.F
	g.Compress(f)
	for _, x := range [][]float64{{0, 0}, {1, 1}, {0.25, 0.75}, {0.5, 0.5}, {1, 0.3}} {
		got, err := g.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-f(x)) > 1e-12 {
			t.Errorf("boundary grid at %v: %g want %g", x, got, f(x))
		}
	}
	if err := g.Decompress(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Evaluate([]float64{0.5, 0.5}); err == nil {
		t.Error("Evaluate after Decompress accepted")
	}
	if _, err := g.Evaluate([]float64{0.5}); err == nil {
		// recompress to test dim check on compressed grid
	}
	g.Compress(f)
	if _, err := g.Evaluate([]float64{0.5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if g.Points() <= 0 || g.MemoryBytes() != g.Points()*8 || g.Dim() != 2 || g.Level() != 4 {
		t.Error("boundary grid accessors inconsistent")
	}
	if _, err := NewWithBoundary(0, 1); err == nil {
		t.Error("dim 0 accepted")
	}
}

func TestWorkersDeterminism(t *testing.T) {
	make := func(w int) *Grid {
		g, _ := New(3, 5, WithWorkers(w))
		g.Compress(workload.Oscillatory.F)
		return g
	}
	a, b := make(1), make(4)
	for k := range a.Raw().Data {
		if a.Raw().Data[k] != b.Raw().Data[k] {
			t.Fatalf("coefficients differ between 1 and 4 workers at %d", k)
		}
	}
}

func TestIntegratePublicAPI(t *testing.T) {
	g, _ := New(3, 7)
	if _, err := g.Integrate(); err == nil {
		t.Error("Integrate on nodal grid accepted")
	}
	g.Compress(workload.Parabola.F)
	got, err := g.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2.0/3.0, 3) // ∫ Π 4x(1-x)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("Integrate = %g want ≈ %g", got, want)
	}
	b, _ := NewWithBoundary(2, 4)
	if _, err := b.Integrate(); err == nil {
		t.Error("boundary Integrate on nodal grid accepted")
	}
	b.Compress(workload.Multilinear.F)
	bi, err := b.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.5 * 2.0; math.Abs(bi-want) > 1e-12 {
		t.Errorf("boundary Integrate = %g want %g", bi, want)
	}
}

func TestThresholdAndSparseFormat(t *testing.T) {
	g, _ := New(3, 7)
	if _, _, err := g.Threshold(0.1); err == nil {
		t.Error("Threshold on nodal grid accepted")
	}
	if err := g.SaveSparse(&bytes.Buffer{}); err == nil {
		t.Error("SaveSparse on nodal grid accepted")
	}
	g.Compress(workload.Gaussian.F)
	total := g.Points()
	kept, bound, err := g.Threshold(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if kept <= 0 || kept >= total {
		t.Fatalf("threshold kept %d of %d", kept, total)
	}
	if bound <= 0 {
		t.Fatal("error bound must be positive when coefficients were dropped")
	}
	var buf bytes.Buffer
	if err := g.SaveSparse(&buf); err != nil {
		t.Fatal(err)
	}
	denseBytes := total*8 + 21
	if int64(buf.Len()) >= denseBytes {
		t.Errorf("sparse container (%d B) not smaller than dense (%d B) at %.0f%% density",
			buf.Len(), denseBytes, 100*float64(kept)/float64(total))
	}
	back, err := LoadSparse(&buf, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Compressed() {
		t.Fatal("LoadSparse result must be compressed")
	}
	// Truncated interpolant round-trips exactly, and stays within the
	// error bound of the true function-space interpolant.
	for _, x := range workload.Points(3, 60, 3) {
		a, _ := g.Evaluate(x)
		b, _ := back.Evaluate(x)
		if a != b {
			t.Fatalf("sparse round trip differs at %v", x)
		}
	}
	if _, err := LoadSparse(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("LoadSparse accepted junk")
	}
}
