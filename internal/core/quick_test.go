package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randPoint draws a uniformly random valid grid point of desc.
func randPoint(rng *rand.Rand, desc *Descriptor, l, i []int32) {
	idx := rng.Int63n(desc.Size())
	desc.Idx2GP(idx, l, i)
}

func TestQuickIndexLandsInItsGroup(t *testing.T) {
	desc := MustDescriptor(6, 7)
	rng := rand.New(rand.NewSource(99))
	l := make([]int32, 6)
	i := make([]int32, 6)
	f := func() bool {
		randPoint(rng, desc, l, i)
		g := LevelSum(l)
		idx := desc.GP2Idx(l, i)
		return idx >= desc.GroupStart(g) && idx < desc.GroupStart(g+1)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickNextPreservesSumAndIncrementsRank(t *testing.T) {
	desc := MustDescriptor(5, 9)
	rng := rand.New(rand.NewSource(100))
	f := func() bool {
		g := rng.Intn(8)
		l := make([]int32, 5)
		s := rng.Int63n(desc.Subspaces(g))
		desc.SubspaceFromIndex(g, s, l)
		rank := desc.SubspaceIndex(l)
		if rank != s {
			return false
		}
		if Next(l) < 0 {
			return IsLast(l)
		}
		return LevelSum(l) == g && desc.SubspaceIndex(l) == rank+1
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickPointAtRecoversOwnIndex(t *testing.T) {
	// Evaluating PointAt at a grid point's own coordinates within its
	// own subspace must return that point.
	desc := MustDescriptor(4, 7)
	rng := rand.New(rand.NewSource(101))
	l := make([]int32, 4)
	i := make([]int32, 4)
	x := make([]float64, 4)
	got := make([]int32, 4)
	f := func() bool {
		randPoint(rng, desc, l, i)
		Coords(l, i, x)
		PointAt(l, x, got)
		for t2 := range i {
			if got[t2] != i[t2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestQuickParentChildDuality(t *testing.T) {
	// For any point and dimension with level > 0, following the 1d
	// parent and then the opposite child returns to the point.
	desc := MustDescriptor(5, 7)
	rng := rand.New(rand.NewSource(102))
	l := make([]int32, 5)
	i := make([]int32, 5)
	f := func() bool {
		randPoint(rng, desc, l, i)
		for t2 := range l {
			if l[t2] == 0 {
				continue
			}
			for _, dir := range []ParentDir{LeftParent, RightParent} {
				pl, pi, ok := Parent1D(l[t2], i[t2], dir)
				if !ok {
					continue
				}
				// The point is in the parent's subtree on the opposite
				// side: descending children toward the point recovers it.
				cl, ci := pl, pi
				for cl < l[t2] {
					if Coord(l[t2], i[t2]) < Coord(cl, ci) {
						cl, ci = Child1D(cl, ci, LeftParent)
					} else {
						cl, ci = Child1D(cl, ci, RightParent)
					}
				}
				if cl != l[t2] || ci != i[t2] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSerializationIdempotent(t *testing.T) {
	// Serialize → deserialize → serialize yields identical bytes.
	desc := MustDescriptor(3, 4)
	rng := rand.New(rand.NewSource(103))
	f := func() bool {
		g := NewGrid(desc)
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		var a, b bytes.Buffer
		if _, err := g.WriteTo(&a); err != nil {
			return false
		}
		back, err := ReadGrid(bytes.NewReader(a.Bytes()))
		if err != nil {
			return false
		}
		if _, err := back.WriteTo(&b); err != nil {
			return false
		}
		return bytes.Equal(a.Bytes(), b.Bytes())
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
