// Package adaptive implements spatially adaptive sparse grids — the
// flexibility the paper's compact structure deliberately trades away
// (Sec. 7: hash-based structures "keep the access structures as flexible
// as possible and suitable for adaptive refinement"). It keeps the
// paper's layout anyway. gp2idx does not depend on the grid's level: its
// group offsets and binomial table depend only on d, so every regular
// grid is a prefix of every deeper one. An adaptive grid is therefore a
// prefix of the coefficient array of the enclosing regular grid of the
// maximum refinement level: one float64 surplus and one state byte per
// slot, grown by whole level groups, with zero surplus in every slot
// that holds no committed point.
//
// The grid maintains the classic invariants of adaptive sparse grids:
//
//   - hierarchical closure: every point's hierarchical ancestors (in
//     every dimension) are present, and a committed point's ancestors
//     are committed;
//   - surplus semantics: each point stores its hierarchical surplus
//     α_p = f(x_p) − I_coarser(x_p), assigned in ascending level-group
//     order (same-group basis functions vanish at each other's centers).
//
// Because absent points hold zero, the committed prefix is a regular
// compact grid whose interpolant is the adaptive one. Evaluate runs the
// paper's Alg. 7 kernel (eval.Iterative) on it and ExportCompact copies
// it, so the writer's I(x) is bit-identical to what a snapshot of the
// export serves.
//
// Refinement is surplus-driven: points whose |α| exceeds a threshold
// get their 2d hierarchical children inserted, cap-limited. A point
// whose children have all been inserted (or that sits at the level cap)
// is settled and never re-examined, so a converged grid answers Refine
// with a scan of the state bytes and no candidate work.
//
// Grids come in two flavors. New captures a function f and computes
// nodal values itself. NewObserved has no captive function: callers feed
// nodal values with Observe/ObserveBatch, poll NeedValues for the points
// the grid is still missing, and Commit assigns surpluses for every
// point whose hierarchical ancestors are all valued — the level-group
// commit order and the closure of the committed set are preserved, so a
// partially observed grid is always a valid (coarser) interpolant.
//
// All exported methods are safe for concurrent use: Evaluate takes a
// read lock and allocates nothing, the mutating calls serialize behind a
// write lock.
package adaptive

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"compactsg/internal/core"
	"compactsg/internal/eval"
)

// ErrCaptive is returned by Observe on a grid built with New: such a
// grid computes its own nodal values from the captured function.
var ErrCaptive = errors.New("adaptive: grid has a captive function; Observe requires NewObserved")

// Slot states, one byte per gp2idx slot of the prefix. The order
// matters: a slot holds a committed surplus iff its state ≥ committed.
const (
	absent    byte = iota
	awaiting       // inserted without a nodal value (observed grids only)
	pending        // valued; its surplus is not yet assigned
	committed      // surplus assigned
	settled        // committed, and Refine is done with it: its children are all inserted, or it sits at the level cap
	numStates
)

var dirs = [2]core.ParentDir{core.LeftParent, core.RightParent}

// Grid is a spatially adaptive sparse grid for a fixed target function
// (New) or an externally observed one (NewObserved).
type Grid struct {
	desc *core.Descriptor // enclosing regular grid (defines gp2idx keys)
	dim  int
	max  int // deepest usable level group = desc.Level()-1
	f    func(x []float64) float64

	mu sync.RWMutex
	// surplus holds the committed surpluses in gp2idx order and zero in
	// every other slot; state holds each slot's state. Both cover the
	// level groups up to the deepest one holding a point.
	surplus []float64
	state   []byte
	// pending holds the nodal values f(x_p) of pending points.
	pending map[int64]float64
	// count[s] is the number of slots in state s (count[absent] is not
	// kept).
	count [numStates]int
	// view is the committed prefix as a regular compact grid: the level
	// groups up to the deepest committed one. Evaluate sums it and
	// ExportCompact copies it.
	view *core.Grid
	// cappedTotal counts candidates ever blocked at the level cap.
	cappedTotal int
	// l, i are the point cursor of the write-locked methods.
	l, i []int32
}

// RefineStats reports what one refinement round did.
type RefineStats struct {
	// Added is the number of points inserted (closure parents count).
	Added int
	// Capped counts candidates skipped because their children would
	// exceed MaxLevel. A nonzero Capped with zero Added means the grid
	// is budget-blocked at the cap, not converged.
	Capped int
	// Candidates is the number of unsettled points with |α| > eps that
	// were examined. Zero means the round did no candidate work at all.
	Candidates int
	// Committed is the number of pending points whose surplus was
	// assigned this round.
	Committed int
}

func newGrid(dim, initialLevel, maxLevel int, f func(x []float64) float64) (*Grid, error) {
	if initialLevel < 1 || initialLevel > maxLevel {
		return nil, fmt.Errorf("adaptive: initial level %d out of range [1, %d]", initialLevel, maxLevel)
	}
	desc, err := core.NewDescriptor(dim, maxLevel)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		desc:    desc,
		dim:     dim,
		max:     maxLevel - 1,
		f:       f,
		surplus: make([]float64, 1),
		state:   make([]byte, 1),
		pending: make(map[int64]float64),
		l:       make([]int32, dim),
		i:       make([]int32, dim),
	}
	g.setView(1)
	// Seed with the regular grid of the initial level: a prefix of the
	// enclosing one.
	for key := int64(0); key < desc.GroupStart(initialLevel); key++ {
		desc.Idx2GP(key, g.l, g.i)
		g.insert(g.l, g.i)
	}
	g.commit()
	return g, nil
}

// New creates an adaptive grid for f with an initial regular level and
// a maximum refinement level (the key space bound).
func New(dim, initialLevel, maxLevel int, f func(x []float64) float64) (*Grid, error) {
	if f == nil {
		return nil, errors.New("adaptive: nil function; use NewObserved for observation-fed grids")
	}
	return newGrid(dim, initialLevel, maxLevel, f)
}

// NewObserved creates an observation-fed adaptive grid: no function is
// captured, the seed points of the initial level start out awaiting
// values. Feed them with Observe/ObserveBatch (NeedValues lists what is
// missing), then Commit assigns surpluses.
func NewObserved(dim, initialLevel, maxLevel int) (*Grid, error) {
	return newGrid(dim, initialLevel, maxLevel, nil)
}

// Observed reports whether the grid is observation-fed.
func (g *Grid) Observed() bool { return g.f == nil }

// Points returns the number of grid points (committed, valued-pending
// and awaiting observation).
func (g *Grid) Points() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.pointsLocked()
}

func (g *Grid) pointsLocked() int {
	return g.count[awaiting] + g.count[pending] + g.count[committed] + g.count[settled]
}

// Counts returns the number of committed points, valued points waiting
// for Commit, and points awaiting an observed value.
func (g *Grid) Counts() (committedPoints, pendingPoints, awaitingPoints int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.count[committed] + g.count[settled], g.count[pending], g.count[awaiting]
}

// Dim returns the dimensionality.
func (g *Grid) Dim() int { return g.dim }

// MaxLevel returns the deepest admissible refinement level.
func (g *Grid) MaxLevel() int { return g.max + 1 }

// CappedTotal returns the cumulative number of refinement candidates
// that were blocked at the level cap across all Refine calls.
func (g *Grid) CappedTotal() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cappedTotal
}

// MemoryBytes returns the bytes the grid's prefix holds: 8 for the
// surplus and 1 for the state byte of every slot up to the deepest
// level group holding a point. Nodal values waiting for Commit are not
// counted.
func (g *Grid) MemoryBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return int64(cap(g.surplus))*8 + int64(cap(g.state))
}

// stateOf returns the state of slot key, absent past the prefix.
func (g *Grid) stateOf(key int64) byte {
	if key >= int64(len(g.state)) {
		return absent
	}
	return g.state[key]
}

// set moves slot key to state s.
func (g *Grid) set(key int64, s byte) {
	g.count[g.state[key]]--
	g.count[s]++
	g.state[key] = s
}

// setView points view at the first groups level groups of surplus.
func (g *Grid) setView(groups int) {
	desc, _ := core.NewDescriptor(g.dim, groups) // groups ≤ desc.Level()
	g.view, _ = core.GridFromData(desc, g.surplus[:desc.Size()])
}

// grow extends the prefix by whole level groups until it covers group
// grp.
func (g *Grid) grow(grp int) {
	n := int(g.desc.GroupStart(grp + 1))
	if n <= len(g.state) {
		return
	}
	g.surplus = append(make([]float64, 0, n), g.surplus...)[:n]
	g.state = append(make([]byte, 0, n), g.state...)[:n]
	g.setView(g.view.Level())
}

// insert adds the point (l, i), recursively adding missing hierarchical
// ancestors first (closure). Captive-function grids compute the nodal
// value on the spot; observed grids leave the point awaiting. Existing
// points are left untouched. Callers hold the write lock (or are
// constructing the grid).
func (g *Grid) insert(l, i []int32) {
	key := g.desc.GP2Idx(l, i)
	if g.stateOf(key) != absent {
		return
	}
	for t := 0; t < g.dim; t++ {
		for _, dir := range dirs {
			pl, pi, ok := core.Parent1D(l[t], i[t], dir)
			if !ok {
				continue
			}
			sl, si := l[t], i[t]
			l[t], i[t] = pl, pi
			g.insert(l, i)
			l[t], i[t] = sl, si
		}
	}
	g.grow(core.LevelSum(l))
	if g.f == nil {
		g.set(key, awaiting)
		return
	}
	x := make([]float64, g.dim)
	core.Coords(l, i, x)
	g.pending[key] = g.f(x)
	g.set(key, pending)
}

// commit assigns surpluses to pending points in ascending level-group
// order: α_p = f(x_p) − I(x_p), where I already contains every coarser
// point (including same-batch ones). A point commits only when all its
// hierarchical parents are committed, so the committed set stays closed
// even when some ancestors are still awaiting observation; blocked
// points stay pending for a later round. Callers hold the write lock.
// Returns the number of points committed.
func (g *Grid) commit() int {
	if g.count[pending] == 0 {
		return 0
	}
	x := make([]float64, g.dim)
	n := 0
	// gp2idx orders by level group first, so slot order is group order:
	// parents have strictly smaller keys and commit first in this pass.
	for k, s := range g.state {
		if s != pending {
			continue
		}
		key := int64(k)
		g.desc.Idx2GP(key, g.l, g.i)
		if !g.parentsCommitted(g.l, g.i) {
			continue
		}
		core.Coords(g.l, g.i, x)
		// Every slot of x's group or deeper adds an exact zero at x, so
		// the view's sum is I_coarser(x) whatever the view's depth.
		g.surplus[key] = g.pending[key] - eval.Iterative(g.view, x)
		delete(g.pending, key)
		g.set(key, committed)
		if grp := core.LevelSum(g.l); grp >= g.view.Level() {
			g.setView(grp + 1)
		}
		n++
	}
	return n
}

// parentsCommitted reports whether every hierarchical parent of (l, i)
// has a committed surplus. Closure makes the direct-parent check
// sufficient: committed parents had their own parents committed first.
func (g *Grid) parentsCommitted(l, i []int32) bool {
	for t := 0; t < g.dim; t++ {
		for _, dir := range dirs {
			if p, ok := g.desc.ParentIdx(l, i, t, dir); ok && g.state[p] < committed {
				return false
			}
		}
	}
	return true
}

// Commit assigns surpluses for every valued point whose hierarchical
// ancestors are all committed, in ascending level-group order. It
// returns the number of points committed. Captive-function grids commit
// inside Refine automatically; observed grids call this after feeding
// values (the serve layer does it before every refinement round).
func (g *Grid) Commit() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commit()
}

// canonPoint maps x onto the deepest-level lattice of desc and reduces
// it to canonical (level, index) form in each dimension, returning its
// gp2idx key. Coordinates must lie strictly inside (0, 1) and within
// 1e-9 of a lattice point.
func canonPoint(desc *core.Descriptor, x []float64, l, i []int32) (int64, error) {
	top := desc.Level() - 1
	scale := float64(int64(1) << uint(top+1))
	for t, v := range x {
		if math.IsNaN(v) || v <= 0 || v >= 1 {
			return 0, fmt.Errorf("adaptive: coordinate %d = %v outside (0, 1)", t, v)
		}
		k := math.Round(v * scale)
		if math.Abs(v-k/scale) > 1e-9 {
			return 0, fmt.Errorf("adaptive: coordinate %d = %v is not on the level-%d lattice", t, v, top+1)
		}
		ki := int64(k)
		if ki <= 0 || ki >= int64(scale) {
			return 0, fmt.Errorf("adaptive: coordinate %d = %v snaps to the boundary", t, v)
		}
		lev := int32(top)
		for ki%2 == 0 {
			ki >>= 1
			lev--
		}
		l[t], i[t] = lev, int32(ki)
	}
	if s := core.LevelSum(l[:len(x)]); s > top {
		return 0, fmt.Errorf("adaptive: point at level group %d outside the level-%d sparse grid", s, top+1)
	}
	return desc.GP2Idx(l, i), nil
}

// Observe feeds one nodal value y = f(x) to an observation-fed grid.
// x must be a grid point of the enclosing lattice (strictly inside the
// unit cube, on the deepest level's lattice). Points the grid asked for
// (NeedValues) become valued; a point not yet in the grid is inserted
// (its closure ancestors start awaiting values); re-observing a
// committed point adjusts its surplus in place so the interpolant
// matches the new value at x exactly.
func (g *Grid) Observe(x []float64, y float64) error {
	if g.f != nil {
		return ErrCaptive
	}
	if len(x) != g.dim {
		return fmt.Errorf("adaptive: point has %d coordinates, grid is %d-dimensional", len(x), g.dim)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("adaptive: observed value %v is not finite", y)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.observeLocked(x, y)
}

func (g *Grid) observeLocked(x []float64, y float64) error {
	key, err := canonPoint(g.desc, x, g.l, g.i)
	if err != nil {
		return err
	}
	switch g.stateOf(key) {
	case committed, settled:
		// Deeper basis functions vanish at strictly coarser lattice
		// points, so I(x) here is ancestors + α_key: shifting α by the
		// residual restores exact interpolation of y at x.
		g.surplus[key] += y - eval.Iterative(g.view, x)
		return nil
	case absent:
		// New point: insert with closure (ancestors start awaiting).
		g.insert(g.l, g.i)
	}
	g.pending[key] = y
	g.set(key, pending)
	return nil
}

// ObserveBatch feeds len(xs) observations. Each point is applied
// independently: malformed points (off-lattice, boundary, wrong
// dimension, non-finite value) are counted in rejected and skipped,
// everything else lands atomically under one lock. A length mismatch
// between xs and ys rejects the whole batch.
func (g *Grid) ObserveBatch(xs [][]float64, ys []float64) (applied, rejected int, err error) {
	if g.f != nil {
		return 0, 0, ErrCaptive
	}
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("adaptive: %d points with %d values", len(xs), len(ys))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for n, x := range xs {
		if len(x) != g.dim || math.IsNaN(ys[n]) || math.IsInf(ys[n], 0) {
			rejected++
			continue
		}
		if g.observeLocked(x, ys[n]) != nil {
			rejected++
			continue
		}
		applied++
	}
	return applied, rejected, nil
}

// NeedValues returns the coordinates of up to limit points that are
// awaiting an observed value, coarsest level groups first (their values
// unblock the most committals). limit ≤ 0 returns all of them. The
// returned slices are freshly allocated.
func (g *Grid) NeedValues(limit int) [][]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.count[awaiting]
	if limit > 0 {
		n = min(n, limit)
	}
	if n == 0 {
		return nil
	}
	l := make([]int32, g.dim)
	i := make([]int32, g.dim)
	out := make([][]float64, 0, n)
	for k, s := range g.state {
		if len(out) == n {
			break
		}
		if s == awaiting {
			g.desc.Idx2GP(int64(k), l, i)
			x := make([]float64, g.dim)
			core.Coords(l, i, x)
			out = append(out, x)
		}
	}
	return out
}

// Refine inserts the hierarchical children of every unsettled point
// whose |α| exceeds eps, stopping once maxNew new points were created
// (closure parents count). It returns the number of points added; zero
// means the grid is converged for this threshold (check RefineDetailed
// to distinguish convergence from a level-cap block).
func (g *Grid) Refine(eps float64, maxNew int) int {
	return g.RefineDetailed(eps, maxNew).Added
}

// RefineDetailed is Refine with full accounting: candidates examined,
// points added, candidates blocked at the level cap, pending points
// committed. Settled points — children already inserted, or capped —
// are skipped without a sort slot, so back-to-back calls on an
// unchanged grid examine zero candidates.
func (g *Grid) RefineDetailed(eps float64, maxNew int) RefineStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var st RefineStats
	type cand struct {
		key int64
		mag float64
	}
	var cands []cand
	for k, s := range g.state {
		if a := math.Abs(g.surplus[k]); s == committed && a > eps {
			cands = append(cands, cand{int64(k), a})
		}
	}
	st.Candidates = len(cands)
	// Largest surpluses first: spend the point budget where it matters.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].mag != cands[b].mag {
			return cands[a].mag > cands[b].mag
		}
		return cands[a].key < cands[b].key
	})
	before := g.pointsLocked()
	l, i := g.l, g.i
	for _, c := range cands {
		if g.pointsLocked()-before >= maxNew {
			// Budget exhausted: remaining candidates stay unsettled and
			// are retried next round.
			break
		}
		g.desc.Idx2GP(c.key, l, i)
		if core.LevelSum(l) >= g.max {
			// Children would exceed the level cap; the point can never
			// refine, so it settles — but the caller learns it was
			// capacity, not convergence.
			g.set(c.key, settled)
			st.Capped++
			g.cappedTotal++
			continue
		}
		for t := 0; t < g.dim; t++ {
			for _, dir := range dirs {
				sl, si := l[t], i[t]
				l[t], i[t] = core.Child1D(sl, si, dir)
				g.insert(l, i)
				l[t], i[t] = sl, si
			}
		}
		g.set(c.key, settled)
	}
	st.Committed = g.commit()
	st.Added = g.pointsLocked() - before
	return st
}

// Evaluate interpolates the adaptive grid at x: eval.Iterative on the
// committed prefix, whose absent points hold zero. Safe for concurrent
// use; does not allocate.
func (g *Grid) Evaluate(x []float64) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return eval.Iterative(g.view, x)
}

// Coarsen removes leaf points (no hierarchical children present) whose
// |surplus| ≤ eps — the inverse of Refine, used to shrink a grid after
// the target function's rough region moved. Only leaves are removed so
// the closure invariant survives; repeated calls peel deeper. Parents
// of removed points are un-settled so a later Refine can regrow them.
// It returns the number of removed points and the L∞ error bound of
// the removal (Σ of removed |α|).
func (g *Grid) Coarsen(eps float64) (removed int, errorBound float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, i := g.l, g.i
	var victims []int64
	// Slot 0 is the root point, which is always kept.
	for k := 1; k < len(g.state); k++ {
		a := math.Abs(g.surplus[k])
		if g.state[k] < committed || a > eps {
			continue
		}
		g.desc.Idx2GP(int64(k), l, i)
		if g.hasChild(l, i) {
			continue
		}
		victims = append(victims, int64(k))
		errorBound += a
	}
	if len(victims) == 0 {
		return 0, 0
	}
	for _, key := range victims {
		g.surplus[key] = 0
		g.set(key, absent)
		// The victim's parents lost a child: let Refine regrow them.
		g.desc.Idx2GP(key, l, i)
		for t := 0; t < g.dim; t++ {
			for _, dir := range dirs {
				if p, ok := g.desc.ParentIdx(l, i, t, dir); ok && g.state[p] == settled {
					g.set(p, committed)
				}
			}
		}
	}
	// The view shrinks to the deepest group still committed.
	k := len(g.state) - 1
	for k > 0 && g.state[k] < committed {
		k--
	}
	g.setView(g.desc.GroupOf(int64(k)) + 1)
	return len(victims), errorBound
}

// hasChild reports whether any hierarchical child of (l, i) is present
// in any state (committed, valued-pending, or awaiting observation) —
// removing the parent of an uncommitted child would orphan it.
func (g *Grid) hasChild(l, i []int32) bool {
	if core.LevelSum(l) >= g.max {
		return false
	}
	for t := 0; t < g.dim; t++ {
		for _, dir := range dirs {
			sl, si := l[t], i[t]
			l[t], i[t] = core.Child1D(sl, si, dir)
			s := g.stateOf(g.desc.GP2Idx(l, i))
			l[t], i[t] = sl, si
			if s != absent {
				return true
			}
		}
	}
	return false
}

// MaxSurplusAboveLevel returns the largest |α| among points with
// |l|₁ ≥ group — a convergence indicator for refinement loops. Slots
// are in group order, so those points are the prefix's tail from
// GroupStart(group).
func (g *Grid) MaxSurplusAboveLevel(group int) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m := 0.0
	for k := g.desc.GroupStart(min(max(group, 0), g.max+1)); k < int64(len(g.state)); k++ {
		if a := math.Abs(g.surplus[k]); g.state[k] >= committed && a > m {
			m = a
		}
	}
	return m
}

// ExportCompact copies the committed prefix into the paper's compact
// regular-grid layout: a core.Grid of the smallest regular level that
// contains every committed group, with absent points at zero surplus.
// Its regular interpolant is the adaptive one, bit for bit, so a
// snapshot of it serves the same model. Points still pending or
// awaiting observation are not exported — Commit first.
func (g *Grid) ExportCompact() (*core.Grid, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := core.NewGrid(g.view.Desc())
	copy(out.Data, g.view.Data)
	return out, nil
}
