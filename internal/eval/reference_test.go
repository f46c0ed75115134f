package eval

import (
	"math"
	"math/rand"
	"testing"

	"compactsg/internal/basis"
	"compactsg/internal/core"
)

// iterativeReference is the pre-table evaluation kernel: the subspace
// walk recomputing cell index and hat value with basis.EvalInterval per
// (subspace, dimension), exactly as iterativeInto did before the 1d
// basis tables. The property tests pin the table-driven kernel to this
// recomputation bit for bit.
func iterativeReference(g *core.Grid, x []float64) float64 {
	desc := g.Desc()
	d := desc.Dim()
	l := make([]int32, d)
	res := 0.0
	var index2 int64
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		nsub := desc.Subspaces(grp)
		sz := int64(1) << uint(grp)
		for k := int64(0); k < nsub; k++ {
			prod := 1.0
			var index1 int64
			for t := d - 1; t >= 0; t-- {
				cells := int64(1) << uint32(l[t])
				c := core.CellIndex(l[t], x[t])
				index1 = index1<<uint32(l[t]) + c
				div := 1.0 / float64(cells)
				left := float64(c) * div
				prod *= basis.EvalInterval(left, left+div, x[t])
			}
			res += prod * g.Data[index1+index2]
			core.Next(l)
			index2 += sz
		}
	}
	return res
}

// refQueries draws query points spanning the interesting cases: interior
// points, out-of-domain points on both sides (exercising the clamp), the
// exact edges 0 and 1, and a point with a NaN coordinate. The special
// points come last, so every tail slice of three or more points holds
// all of them.
func refQueries(rng *rand.Rand, n, d int) [][]float64 {
	xs := make([][]float64, 0, n+3)
	for k := 0; k < n; k++ {
		x := make([]float64, d)
		for t := range x {
			x[t] = rng.Float64()*2 - 0.5 // [-0.5, 1.5)
		}
		xs = append(xs, x)
	}
	zero := make([]float64, d)
	one := make([]float64, d)
	nan := make([]float64, d)
	for t := 0; t < d; t++ {
		one[t] = 1.0
		nan[t] = 0.3
	}
	nan[d/2] = math.NaN()
	return append(xs, zero, one, nan)
}

// sameResult reports whether got reproduces the reference want: equal
// bits, or both NaN (a NaN coordinate must yield NaN, whatever its
// payload).
func sameResult(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// references evaluates the recomputing reference at every point of xs.
func references(g *core.Grid, xs [][]float64) []float64 {
	want := make([]float64, len(xs))
	for k, x := range xs {
		want[k] = iterativeReference(g, x)
	}
	return want
}

// checkBatch runs xs through Batch with opt and compares every result
// with the reference values want.
func checkBatch(t *testing.T, g *core.Grid, xs [][]float64, want []float64, opt Options) {
	t.Helper()
	got := Batch(g, xs, nil, opt)
	if len(got) != len(xs) {
		t.Fatalf("Batch(%+v) returned %d results for %d points", opt, len(got), len(xs))
	}
	for k := range xs {
		if !sameResult(got[k], want[k]) {
			t.Fatalf("d=%d n=%d Batch(%+v) of %d points: [%d] = %v, reference %v (x=%v)",
				g.Dim(), g.Level(), opt, len(xs), k, got[k], want[k], xs[k])
		}
	}
}

// TestTableKernelBitIdentical: the table-driven Iterative and every
// Batch configuration — derived and explicit block widths, from
// point-major to wider than the batch, at every worker count and batch
// size — must reproduce the recomputing reference kernel bit for bit on
// random grids and queries (including clamped out-of-domain coordinates
// and NaN).
func TestTableKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ d, n int }{{1, 1}, {1, 7}, {2, 5}, {3, 6}, {5, 5}, {10, 4}} {
		g := core.NewGrid(core.MustDescriptor(c.d, c.n))
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		pool := refQueries(rng, 1000, c.d)
		want := references(g, pool)
		for k, x := range pool {
			got := Iterative(g, x)
			if !sameResult(got, want[k]) {
				t.Fatalf("d=%d n=%d Iterative(%v) = %v, reference %v", c.d, c.n, x, got, want[k])
			}
			if math.IsNaN(x[c.d/2]) && !math.IsNaN(got) {
				t.Fatalf("d=%d n=%d Iterative(%v) = %v, want NaN", c.d, c.n, x, got)
			}
		}
		for _, pts := range []int{0, 1, 7, 64, 65, 1000} {
			lo := len(pool) - pts
			for _, width := range []int{0, 1, 7, 8, 64, pts + 5} {
				for _, workers := range []int{1, 2, 3, 8} {
					checkBatch(t, g, pool[lo:], want[lo:], Options{Workers: workers, BlockSize: width})
				}
			}
		}
	}
}

// FuzzEvalTableIdentity fuzzes single-query evaluation and a batch
// (size, workers, block width) against the recomputing reference over
// grid shape, surplus seed and coordinates, NaN included.
func FuzzEvalTableIdentity(f *testing.F) {
	f.Add(int64(1), 2, 5, 0.5, 0.25, 0.75, uint8(9), uint8(2), uint8(0))
	f.Add(int64(2), 3, 4, 0.0, 1.0, 0.999999999, uint8(64), uint8(3), uint8(7))
	f.Add(int64(3), 1, 7, -0.5, 1.5, 0.1, uint8(1), uint8(0), uint8(1))
	f.Add(int64(4), 4, 3, math.NaN(), 0.5, 0.5, uint8(17), uint8(8), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, d, n int, x0, x1, x2 float64, pts, workers, width uint8) {
		if d < 1 || d > 4 || n < 1 || n > 7 {
			t.Skip()
		}
		for _, v := range []float64{x0, x1, x2} {
			if !math.IsNaN(v) && !(v >= -4 && v <= 4) { // rejects ±Inf and huge values
				t.Skip()
			}
		}
		g := core.NewGrid(core.MustDescriptor(d, n))
		rng := rand.New(rand.NewSource(seed))
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		coords := []float64{x0, x1, x2, x0 * x1}
		x := coords[:d]
		got := Iterative(g, x)
		want := iterativeReference(g, x)
		if !sameResult(got, want) {
			t.Fatalf("d=%d n=%d x=%v: table %v != reference %v", d, n, x, got, want)
		}
		// The fuzzed point rides in a batch of random points, at a
		// fuzzed position, worker count (0 = auto) and width (0 =
		// derived).
		xs := randPoints(rng, int(pts), d)
		if len(xs) > 0 {
			xs[int(seed&0x7fff)%len(xs)] = x
		}
		checkBatch(t, g, xs, references(g, xs), Options{Workers: int(workers % 9), BlockSize: int(width)})
	})
}
