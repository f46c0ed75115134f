package eval

import (
	"sync"

	"compactsg/internal/basis"
	"compactsg/internal/core"
)

// Per-query 1d basis tables — the table factorization of Alg. 7
// (DESIGN.md §8). For a fixed query point x and dimension t, the inner
// loop of the subspace walk only ever needs two quantities per 1d level
// lvl: the index of the level-lvl cell containing x_t and the value of
// the single level-lvl hat that is nonzero at x_t. Both depend on
// (t, lvl) alone — not on the subspace — so a grid walk that visits S
// subspaces recomputes each of the d·n distinct values S·d/(d·n) ≈ S/n
// times, paying a float→int conversion, two divisions and a hat
// evaluation each time. Building the d·n tables once per query turns
// the per-subspace work into pure table lookups and integer shifts.
//
// The tables are bit-identical to the recomputation by construction:
// build evaluates exactly the expressions the old inner loop used, once
// per (t, lvl) instead of once per (subspace, t).

// blockScratch carries the buffers of one block sweep — the level
// vector plus one table set and one fold stack per query point of the
// block, point-major so each point's tables stay contiguous — so
// single-point evaluation, batch sweeps and the serve path run
// allocation-free at steady state.
type blockScratch struct {
	l     []int32
	d, n  int
	cell  []int64   // cell[(k*d+t)*n + lvl]: index of the level-lvl cell containing x_t of block point k
	phi   []float64 // phi[(k*d+t)*n + lvl]:  value of the one nonzero level-lvl hat there
	stack []partial // stack[k*(d+1) + t]: block point k's fold over dimensions d-1..t; t = d is the empty fold
}

// partial is the fold of the tensor product over dimensions d-1..t of
// the current subspace: the product of their hat values, multiplied in
// that order, and their digits of index1.
type partial struct {
	prod  float64
	index int64
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// getBlockScratch returns a blockScratch sized for bs query points of a
// d-dimensional level-n grid.
func getBlockScratch(bs, d, n int) *blockScratch {
	s := blockScratchPool.Get().(*blockScratch)
	if cap(s.l) < d {
		s.l = make([]int32, d)
	}
	s.l = s.l[:d]
	s.d, s.n = d, n
	if cap(s.cell) < bs*d*n {
		s.cell = make([]int64, bs*d*n)
		s.phi = make([]float64, bs*d*n)
	}
	s.cell = s.cell[:bs*d*n]
	s.phi = s.phi[:bs*d*n]
	if cap(s.stack) < bs*(d+1) {
		s.stack = make([]partial, bs*(d+1))
	}
	s.stack = s.stack[:bs*(d+1)]
	return s
}

func putBlockScratch(s *blockScratch) { blockScratchPool.Put(s) }

// build fills the tables of block point k for query x — O(d·n) work
// that the subspace walk then reuses for every subspace — and seeds its
// fold stack with the empty fold.
func (s *blockScratch) build(k int, x []float64) {
	d, n := s.d, s.n
	s.stack[k*(d+1)+d] = partial{prod: 1}
	for t, xt := range x[:d] {
		row := s.cell[(k*d+t)*n : (k*d+t+1)*n]
		prow := s.phi[(k*d+t)*n : (k*d+t+1)*n]
		for lvl := 0; lvl < n; lvl++ {
			cells := int64(1) << uint(lvl)
			c := core.CellIndex(int32(lvl), xt)
			div := 1.0 / float64(cells)
			left := float64(c) * div
			row[lvl] = c
			prow[lvl] = basis.EvalInterval(left, left+div, xt)
		}
	}
}
