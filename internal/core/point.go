package core

import (
	"fmt"
	"math/bits"
)

// Grid point geometry and the hierarchical parent/child relations used by
// hierarchization (paper Sec. 3, Fig. 5 right).
//
// In one dimension (0-based level l, odd index i) the point sits at
// x = i / 2^(l+1). Its hierarchical children on level l+1 are 2i-1 and
// 2i+1; its left/right hierarchical ancestors are found by stripping the
// trailing zero bits of i∓1 (the nearest coarser grid line on that side).
// The domain boundary (x = 0 or 1) carries value 0 in the zero-boundary
// setting and acts as the parent of the outermost points.

// Coord returns the 1d coordinate of (level, index): index / 2^(level+1).
func Coord(level, index int32) float64 {
	return float64(index) / float64(int64(1)<<uint32(level+1))
}

// Coords fills x with the coordinates of the grid point (l, i).
func Coords(l, i []int32, x []float64) {
	for t := range l {
		x[t] = Coord(l[t], i[t])
	}
}

// ParentDir selects the left or right hierarchical ancestor.
type ParentDir int

// Parent directions.
const (
	LeftParent  ParentDir = -1
	RightParent ParentDir = +1
)

// Parent1D returns the level and index of the hierarchical ancestor of
// (level, index) on the given side, and ok=false if that side runs into
// the domain boundary (x = 0 or x = 1), where the zero-boundary value 0
// applies.
func Parent1D(level, index int32, dir ParentDir) (plevel, pindex int32, ok bool) {
	num := index + int32(dir) // numerator over 2^(level+1); always even
	if num == 0 || num == int32(1)<<uint32(level+1) {
		return 0, 0, false
	}
	k := int32(bits.TrailingZeros32(uint32(num)))
	return level - k, num >> uint32(k), true
}

// Child1D returns the hierarchical child of (level, index) on the given
// side: (level+1, 2·index + dir).
func Child1D(level, index int32, dir ParentDir) (clevel, cindex int32) {
	return level + 1, 2*index + int32(dir)
}

// ParentIdx returns the flat index of the hierarchical ancestor of the
// point (l, i) in dimension t on the given side, and ok=false when the
// ancestor is the domain boundary. l and i are restored before returning.
func (d *Descriptor) ParentIdx(l, i []int32, t int, dir ParentDir) (idx int64, ok bool) {
	pl, pi, ok := Parent1D(l[t], i[t], dir)
	if !ok {
		return 0, false
	}
	sl, si := l[t], i[t]
	l[t], i[t] = pl, pi
	idx = d.GP2Idx(l, i)
	l[t], i[t] = sl, si
	return idx, true
}

// Contains reports whether (l, i) is a valid point of this grid:
// |l|₁ < Level() and every i[t] odd within its level range.
func (d *Descriptor) Contains(l, i []int32) bool {
	if len(l) != d.dim || len(i) != d.dim {
		return false
	}
	sum := 0
	for t := 0; t < d.dim; t++ {
		if l[t] < 0 {
			return false
		}
		sum += int(l[t])
		if i[t]&1 == 0 || i[t] < 1 || int64(i[t]) >= int64(1)<<uint32(l[t]+1) {
			return false
		}
	}
	return sum < d.level
}

// CellIndex returns the index of the level-`level` cell containing x:
// ⌊x·2^level⌋ clamped into [0, 2^level−1]. On 1d level l the supports of
// the 2^l basis functions tile [0,1] in cells of width 2^−l; the clamp
// assigns x < 0 to the first cell and x ≥ 1 (including x = 1.0, whose
// unclamped cell index would be 2^l) to the last one. NaN also lands in
// the first cell, so every kernel stays in bounds and propagates NaN
// through the hat value instead of indexing out of range. This is the
// single clamp-to-cell rule shared by PointAt and the evaluation table
// builder.
func CellIndex(level int32, x float64) int64 {
	cells := int64(1) << uint32(level)
	if !(x > 0) {
		// Also catches NaN and the float→int64 conversion overflow of
		// huge negative x, which is implementation-defined in Go.
		return 0
	}
	if x >= 1 {
		return cells - 1
	}
	c := int64(x * float64(cells))
	if c >= cells {
		// x just below 1 can still round up to 2^level.
		return cells - 1
	}
	return c
}

// PointAt locates the grid point of subspace l whose basis-function
// support contains the coordinate vector x ∈ [0,1)^d, writing the odd
// indices into i. Coordinates are clamped into [0,1] per CellIndex, with
// x = 1 assigned to the last cell.
func PointAt(l []int32, x []float64, i []int32) {
	for t := range l {
		i[t] = int32(CellIndex(l[t], x[t])<<1 | 1)
	}
}

// FormatPoint renders (l, i) with its coordinates, for diagnostics.
func FormatPoint(l, i []int32) string {
	x := make([]float64, len(l))
	Coords(l, i, x)
	return fmt.Sprintf("l=%v i=%v x=%v", l, i, x)
}
