package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestCellIndexEdges pins the shared clamp-to-cell rule once for every
// consumer (PointAt, the eval table builder):
// x = 1.0 and anything beyond land in the last cell, x < 0 and NaN in
// the first.
func TestCellIndexEdges(t *testing.T) {
	for _, level := range []int32{0, 1, 3, 7} {
		cells := int64(1) << uint32(level)
		cases := []struct {
			x    float64
			want int64
		}{
			{0.0, 0},
			{-0.25, 0},
			{-1e300, 0},
			{1.0, cells - 1},
			{1.5, cells - 1},
			{1e300, cells - 1},
			{0.999999999, cells - 1},
			{math.NaN(), 0},
		}
		for _, c := range cases {
			if got := CellIndex(level, c.x); got != c.want {
				t.Errorf("CellIndex(%d, %g) = %d, want %d", level, c.x, got, c.want)
			}
		}
		// Interior points land in ⌊x·2^level⌋ exactly.
		for c := int64(0); c < cells; c++ {
			x := (float64(c) + 0.5) / float64(cells)
			if got := CellIndex(level, x); got != c {
				t.Errorf("CellIndex(%d, %g) = %d, want %d", level, x, got, c)
			}
		}
	}
}

// TestCellIndexMatchesPointAt: PointAt must be exactly CellIndex
// per dimension (the odd index 2c+1).
func TestCellIndexMatchesPointAt(t *testing.T) {
	l := []int32{0, 2, 4}
	i := make([]int32, 3)
	xs := [][]float64{
		{0, 0.5, 1.0},
		{-0.1, 0.3, 1.7},
		{0.9999, 0.0001, 0.5},
	}
	for _, x := range xs {
		PointAt(l, x, i)
		for d := range l {
			want := int32(CellIndex(l[d], x[d])<<1 | 1)
			if i[d] != want {
				t.Errorf("PointAt x=%v dim %d: i=%d want %d", x, d, i[d], want)
			}
		}
	}
}

// TestAncestorStarts checks the precomputed ancestor subspace bases
// against direct SubspaceStart calls on the modified level vector, and
// that l is restored.
func TestAncestorStarts(t *testing.T) {
	desc := MustDescriptor(4, 7)
	rng := rand.New(rand.NewSource(42))
	l := make([]int32, 4)
	saved := make([]int32, 4)
	ref := make([]int32, 4)
	dst := make([]int64, desc.Level())
	for grp := 0; grp < desc.Groups(); grp++ {
		for trial := 0; trial < 20; trial++ {
			s := rng.Int63n(desc.Subspaces(grp))
			desc.SubspaceFromIndex(grp, s, l)
			copy(saved, l)
			for dim := 0; dim < 4; dim++ {
				got := desc.AncestorStarts(l, dim, dst)
				if len(got) != int(l[dim]) {
					t.Fatalf("AncestorStarts(l=%v, t=%d) returned %d entries, want %d", l, dim, len(got), l[dim])
				}
				for pl := int32(0); pl < l[dim]; pl++ {
					copy(ref, saved)
					ref[dim] = pl
					if want := desc.SubspaceStart(ref); got[pl] != want {
						t.Errorf("AncestorStarts(l=%v, t=%d)[%d] = %d, want %d", saved, dim, pl, got[pl], want)
					}
				}
				for k := range l {
					if l[k] != saved[k] {
						t.Fatalf("AncestorStarts mutated l: %v, want %v", l, saved)
					}
				}
			}
		}
	}
}
