package adaptive

import (
	"math"
	"sort"

	"compactsg/internal/core"
	"compactsg/internal/eval"
)

// refGrid is the gp2idx-keyed hash layout this package kept its model
// in before the dense prefix, now the test-only reference for
// observation-fed grids: surpluses, nodal values and the awaiting and
// settled marks live in four maps, walked in sorted key order. Its
// ExportCompact re-indexes every committed key into a fresh regular
// grid, and it computes I(x) with eval.Iterative on that export, so its
// surpluses must match the dense Grid's bit for bit.
type refGrid struct {
	desc     *core.Descriptor
	dim, max int
	surplus  map[int64]float64
	pending  map[int64]float64
	awaiting map[int64]bool
	settled  map[int64]bool
}

func newRefObserved(dim, initialLevel, maxLevel int) *refGrid {
	r := &refGrid{
		desc:     core.MustDescriptor(dim, maxLevel),
		dim:      dim,
		max:      maxLevel - 1,
		surplus:  make(map[int64]float64),
		pending:  make(map[int64]float64),
		awaiting: make(map[int64]bool),
		settled:  make(map[int64]bool),
	}
	core.MustDescriptor(dim, initialLevel).VisitPoints(func(_ int64, l, i []int32) { r.insert(l, i) })
	r.commit()
	return r
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// stateOf names the slot state key holds, in the dense Grid's terms.
func (r *refGrid) stateOf(key int64) byte {
	if _, ok := r.surplus[key]; ok {
		if r.settled[key] {
			return settled
		}
		return committed
	}
	if _, ok := r.pending[key]; ok {
		return pending
	}
	if r.awaiting[key] {
		return awaiting
	}
	return absent
}

func (r *refGrid) points() int { return len(r.surplus) + len(r.pending) + len(r.awaiting) }

func (r *refGrid) insert(l, i []int32) {
	key := r.desc.GP2Idx(l, i)
	if r.stateOf(key) != absent {
		return
	}
	for t := 0; t < r.dim; t++ {
		for _, dir := range dirs {
			pl, pi, ok := core.Parent1D(l[t], i[t], dir)
			if !ok {
				continue
			}
			sl, si := l[t], i[t]
			l[t], i[t] = pl, pi
			r.insert(l, i)
			l[t], i[t] = sl, si
		}
	}
	r.awaiting[key] = true
}

// export materializes the committed surpluses into the smallest regular
// grid holding every committed group, by an Idx2GP → GP2Idx re-index.
func (r *refGrid) export() *core.Grid {
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	top := 0
	for key := range r.surplus {
		r.desc.Idx2GP(key, l, i)
		top = max(top, core.LevelSum(l))
	}
	desc := core.MustDescriptor(r.dim, top+1)
	out := core.NewGrid(desc)
	for key, a := range r.surplus {
		r.desc.Idx2GP(key, l, i)
		out.Data[desc.GP2Idx(l, i)] = a
	}
	return out
}

func (r *refGrid) evaluate(x []float64) float64 { return eval.Iterative(r.export(), x) }

func (r *refGrid) commit() int {
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	x := make([]float64, r.dim)
	n := 0
	for _, key := range sortedKeys(r.pending) {
		r.desc.Idx2GP(key, l, i)
		ready := true
		for t := 0; t < r.dim; t++ {
			for _, dir := range dirs {
				if p, ok := r.desc.ParentIdx(l, i, t, dir); ok && r.stateOf(p) < committed {
					ready = false
				}
			}
		}
		if !ready {
			continue
		}
		core.Coords(l, i, x)
		r.surplus[key] = r.pending[key] - r.evaluate(x)
		delete(r.pending, key)
		n++
	}
	return n
}

func (r *refGrid) observe(x []float64, y float64) error {
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	key, err := canonPoint(r.desc, x, l, i)
	if err != nil {
		return err
	}
	if _, ok := r.surplus[key]; ok {
		r.surplus[key] += y - r.evaluate(x)
		return nil
	}
	r.insert(l, i)
	delete(r.awaiting, key)
	r.pending[key] = y
	return nil
}

func (r *refGrid) needValues(limit int) [][]float64 {
	keys := sortedKeys(r.awaiting)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	var out [][]float64
	for _, key := range keys {
		r.desc.Idx2GP(key, l, i)
		x := make([]float64, r.dim)
		core.Coords(l, i, x)
		out = append(out, x)
	}
	return out
}

func (r *refGrid) refine(eps float64, maxNew int) RefineStats {
	var st RefineStats
	type cand struct {
		key int64
		mag float64
	}
	var cands []cand
	for key, a := range r.surplus {
		if a = math.Abs(a); !r.settled[key] && a > eps {
			cands = append(cands, cand{key, a})
		}
	}
	st.Candidates = len(cands)
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].mag != cands[b].mag {
			return cands[a].mag > cands[b].mag
		}
		return cands[a].key < cands[b].key
	})
	before := r.points()
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	for _, c := range cands {
		if r.points()-before >= maxNew {
			break
		}
		r.desc.Idx2GP(c.key, l, i)
		r.settled[c.key] = true
		if core.LevelSum(l) >= r.max {
			st.Capped++
			continue
		}
		for t := 0; t < r.dim; t++ {
			for _, dir := range dirs {
				sl, si := l[t], i[t]
				l[t], i[t] = core.Child1D(sl, si, dir)
				r.insert(l, i)
				l[t], i[t] = sl, si
			}
		}
	}
	st.Committed = r.commit()
	st.Added = r.points() - before
	return st
}

func (r *refGrid) coarsen(eps float64) (removed int, errorBound float64) {
	l := make([]int32, r.dim)
	i := make([]int32, r.dim)
	var victims []int64
	for _, key := range sortedKeys(r.surplus) {
		a := math.Abs(r.surplus[key])
		if key == 0 || a > eps {
			continue
		}
		r.desc.Idx2GP(key, l, i)
		leaf := true
		for t := 0; t < r.dim && core.LevelSum(l) < r.max; t++ {
			for _, dir := range dirs {
				sl, si := l[t], i[t]
				l[t], i[t] = core.Child1D(sl, si, dir)
				if r.stateOf(r.desc.GP2Idx(l, i)) != absent {
					leaf = false
				}
				l[t], i[t] = sl, si
			}
		}
		if leaf {
			victims = append(victims, key)
			errorBound += a
		}
	}
	for _, key := range victims {
		delete(r.surplus, key)
		delete(r.settled, key)
		r.desc.Idx2GP(key, l, i)
		for t := 0; t < r.dim; t++ {
			for _, dir := range dirs {
				if p, ok := r.desc.ParentIdx(l, i, t, dir); ok {
					delete(r.settled, p)
				}
			}
		}
	}
	return len(victims), errorBound
}
