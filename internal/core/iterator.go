package core

// Iterators over subspaces and grid points in storage (gp2idx) order.
// They exist so algorithms can walk the flat array without paying the
// full Idx2GP cost per point: the subspace walk keeps l incrementally
// via Next, and positions within a subspace are consecutive.

// SubspaceIter walks all subspaces of a grid in storage order, exposing
// for each one its level vector, level group, and the flat index of its
// first point.
type SubspaceIter struct {
	desc  *Descriptor
	l     []int32
	group int
	start int64
	valid bool
}

// NewSubspaceIter returns an iterator positioned on the first subspace
// (the single point of level group 0).
func NewSubspaceIter(desc *Descriptor) *SubspaceIter {
	it := &SubspaceIter{desc: desc, l: make([]int32, desc.dim)}
	it.Reset()
	return it
}

// Reset repositions the iterator on the first subspace.
func (it *SubspaceIter) Reset() {
	First(it.l, 0)
	it.group = 0
	it.start = 0
	it.valid = it.desc.level > 0
}

// SeekGroup positions the iterator on the first subspace of level group g.
func (it *SubspaceIter) SeekGroup(g int) {
	First(it.l, g)
	it.group = g
	it.start = it.desc.groupStart[g]
	it.valid = g < it.desc.level
}

// Valid reports whether the iterator points at a subspace.
func (it *SubspaceIter) Valid() bool { return it.valid }

// Level returns the current subspace's level vector. The slice is owned
// by the iterator; callers must not retain it across Advance.
func (it *SubspaceIter) Level() []int32 { return it.l }

// Group returns the current level group |l|₁.
func (it *SubspaceIter) Group() int { return it.group }

// Start returns the flat index of the subspace's first point.
func (it *SubspaceIter) Start() int64 { return it.start }

// Points returns the number of points in the current subspace, 2^|l|₁.
func (it *SubspaceIter) Points() int64 { return int64(1) << uint(it.group) }

// Advance moves to the next subspace in storage order, crossing into the
// next level group when the current one is exhausted. It reports whether
// a subspace is available.
func (it *SubspaceIter) Advance() bool {
	if !it.valid {
		return false
	}
	it.start += it.Points()
	if Next(it.l) >= 0 {
		return true
	}
	it.group++
	if it.group >= it.desc.level {
		it.valid = false
		return false
	}
	First(it.l, it.group)
	return true
}

// VisitPoints calls fn for every grid point in storage order with the
// point's flat index, level vector, and index vector. The slices are
// reused between calls. This is the cheap sequential alternative to
// calling Idx2GP per point.
func (d *Descriptor) VisitPoints(fn func(idx int64, l, i []int32)) {
	it := NewSubspaceIter(d)
	i := make([]int32, d.dim)
	for it.Valid() {
		n := it.Points()
		base := it.Start()
		for p := int64(0); p < n; p++ {
			DecodeIndex1(p, it.l, i)
			fn(base+p, it.l, i)
		}
		it.Advance()
	}
}

// VisitSubspaces calls fn for every subspace in storage order with the
// level vector, level group, and flat index of the first point. The level
// slice is reused between calls.
func (d *Descriptor) VisitSubspaces(fn func(l []int32, group int, start int64)) {
	it := NewSubspaceIter(d)
	for it.Valid() {
		fn(it.l, it.group, it.start)
		it.Advance()
	}
}
