package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Parallel batch evaluation deals whole cache blocks of query points
// to workers (DESIGN.md §10); every point is still accumulated in the
// same subspace order, so results must be bit-identical to the
// reference kernel at any worker count — including counts exceeding
// the number of points or blocks, where the surplus workers stay idle.
func TestBatchParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct{ d, n, pts int }{
		{1, 1, 1},   // degenerate: one point, one query
		{1, 7, 5},   // fewer queries than most worker counts
		{2, 2, 3},   // level-1-ish tiny grid
		{3, 5, 40},  // mid-size, queries not a multiple of the line size
		{5, 5, 64},  // aligned query count
		{10, 4, 17}, // high-d
	} {
		g := hierGrid(c.d, c.n, parabola)
		xs := randPoints(rng, c.pts, c.d)
		want := references(g, xs)
		// Workers = 0 resolves to GOMAXPROCS; still identical.
		for _, workers := range []int{0, 1, 2, 3, 8} {
			checkBatch(t, g, xs, want, Options{Workers: workers})
		}
	}
}

// Explicit block widths must agree bit for bit with the reference too
// (same kernel, different cut of the batch into blocks).
func TestBatchBlockedParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := hierGrid(4, 5, parabola)
	xs := randPoints(rng, 100, 4)
	want := references(g, xs)
	for _, workers := range []int{0, 2, 3, 8} {
		checkBatch(t, g, xs, want, Options{Workers: workers, BlockSize: 16})
	}
}

// A context that has already ended stops the sweep before its first
// block, so nothing is written; a live context, whose Done channel the
// sweep polls between blocks, changes no bit of the result.
func TestBatchContextStopsAtBlockBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := hierGrid(4, 5, parabola)
	xs := randPoints(rng, 100, 4)
	want := references(g, xs)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	const sentinel = -1.5
	out := make([]float64, len(xs))
	for _, width := range []int{1, 7, 64} {
		for _, workers := range []int{1, 3} {
			opt := Options{Workers: workers, BlockSize: width}
			for k := range out {
				out[k] = sentinel
			}
			if err := BatchContext(ended, g, xs, out, opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v: ended context: err = %v, want context.Canceled", opt, err)
			}
			for k, v := range out {
				if math.Float64bits(v) != math.Float64bits(sentinel) {
					t.Fatalf("%+v: ended context wrote out[%d] = %v", opt, k, v)
				}
			}
			if err := BatchContext(live, g, xs, out, opt); err != nil {
				t.Fatalf("%+v: live context: %v", opt, err)
			}
			for k := range xs {
				if !sameResult(out[k], want[k]) {
					t.Fatalf("%+v: [%d] = %v, reference %v", opt, k, out[k], want[k])
				}
			}
		}
	}
}
