package eval

import (
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
