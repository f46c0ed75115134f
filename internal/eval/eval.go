// Package eval implements sparse grid evaluation (interpolation) — the
// decompression step of the technique (paper Sec. 3.2, Alg. 2 and
// Sec. 4.3, Alg. 7): fs(x) = Σ α_{l,i} · φ_{l,i}(x), where at most one
// basis function per subspace is nonzero at x.
//
// Two families mirror the hierarchization package:
//
//   - Recursive (Alg. 2 generalized): descends the 1d hierarchy of each
//     dimension along the path of supports containing x, recursing across
//     dimensions to build the tensor-product basis values. Runs on any
//     grids.Store; this is the paper's baseline.
//   - Iterative (Alg. 7): walks every subspace with the next iterator,
//     locates the one contributing point per subspace by direct index
//     arithmetic, and accumulates — no recursion, no idx2gp/gp2idx calls,
//     perfectly suited to one-thread-per-query parallelization.
package eval

import (
	"context"
	"sync"
	"sync/atomic"

	"compactsg/internal/basis"
	"compactsg/internal/core"
	"compactsg/internal/grids"
	"compactsg/internal/par"
)

// Iterative evaluates the hierarchized compact grid at x (paper Alg. 7).
// x must lie in [0,1]^d; coordinates are clamped into the domain.
func Iterative(g *core.Grid, x []float64) float64 {
	desc := g.Desc()
	sc := getBlockScratch(1, desc.Dim(), desc.Level())
	sc.build(0, x)
	res := iterativeInto(g, sc)
	putBlockScratch(sc)
	return res
}

// iterativeInto walks every subspace and accumulates the one contributing
// point per subspace, reading cell indices and hat values from the
// tables of block point 0 of sc (already built for the query point). The
// inner loop is pure table lookups and integer shifts — no float→int
// conversion, no division, no basis call. It stays a loop of its own:
// a single point needs no block, and Iterative is the reference the
// benchmark harness checks batch results against.
func iterativeInto(g *core.Grid, sc *blockScratch) float64 {
	desc := g.Desc()
	data := g.Data
	d := desc.Dim()
	n := sc.n
	cell, phi := sc.cell[:d*n], sc.phi
	phi = phi[:len(cell)] // BCE: phi[j] rides on cell[j]'s bounds check
	l := sc.l[:d]         // BCE: l[t] for t < d
	res := 0.0
	var index2 int64 // running offset of the current subspace (index2+index3)
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		nsub := desc.Subspaces(grp)
		sz := int64(1) << uint(grp)
		for k := int64(0); k < nsub; k++ {
			prod := 1.0
			var index1 int64
			for t := d - 1; t >= 0; t-- {
				lt := l[t]
				j := t*n + int(lt)
				index1 = index1<<uint32(lt) + cell[j]
				prod *= phi[j]
			}
			res += prod * data[index1+index2]
			core.Next(l)
			index2 += sz
		}
	}
	return res
}

// Recursive evaluates a hierarchized store at x (paper Alg. 2 generalized
// to d dimensions): within dimension t it follows the 1d chain of basis
// functions whose supports contain x_t, and at every chain node it recurses
// into dimension t+1 carrying the partial tensor product.
func Recursive(s grids.Store, x []float64) float64 {
	desc := s.Desc()
	d := desc.Dim()
	l := make([]int32, d)
	i := make([]int32, d)
	return evalRec(s, l, i, x, 0, int32(desc.Level()-1), 1.0)
}

func evalRec(s grids.Store, l, i []int32, x []float64, t int, budget int32, partial float64) float64 {
	res := 0.0
	l[t], i[t] = 0, 1
	for {
		phi := basis.Eval1D(l[t], i[t], x[t])
		p := partial * phi
		if t == len(l)-1 {
			if p != 0 {
				res += p * s.Get(l, i)
			}
		} else {
			res += evalRec(s, l, i, x, t+1, budget-l[t], p)
		}
		if l[t] >= budget {
			break
		}
		// Descend towards x: pick the child whose support contains x_t
		// (paper Alg. 2 line 4: "if x left of gp").
		if x[t] < core.Coord(l[t], i[t]) {
			l[t], i[t] = core.Child1D(l[t], i[t], core.LeftParent)
		} else {
			l[t], i[t] = core.Child1D(l[t], i[t], core.RightParent)
		}
	}
	return res
}

// RecursiveBatch evaluates a hierarchized store at every query point
// with the classic recursive algorithm, distributing points over
// workers (the store-based counterpart of Batch, used by the
// scalability experiments). Store access counting must be disabled
// when workers > 1.
func RecursiveBatch(s grids.Store, xs [][]float64, out []float64, workers int) []float64 {
	if out == nil {
		out = make([]float64, len(xs))
	}
	workers = par.Resolve(workers)
	if workers <= 1 {
		for k, x := range xs {
			out[k] = Recursive(s, x)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(xs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for k := lo; k < hi; k++ {
				out[k] = Recursive(s, xs[k])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Options configures batch evaluation.
type Options struct {
	// Workers is the number of goroutines evaluating query points
	// (static decomposition, paper Sec. 5.3). 0 means auto: the count
	// resolves to GOMAXPROCS at call time. A call never uses more
	// workers than it has blocks, so a one-block batch runs entirely on
	// the calling goroutine.
	Workers int
	// BlockSize is the number of query points each subspace sweep
	// serves while the subspace's coefficients are cache-resident (the
	// paper's cache blocking, Sec. 4.3). 0, the default, derives the
	// width from the grid's shape (blockWidth); 1 is the point-major
	// loop of Alg. 7. Only ablations and benchmarks set it.
	BlockSize int
}

// Batch evaluates the grid at every point of xs (each of length d),
// writing results into out and returning it. If out is nil a new slice
// is allocated. Results are identical for any Options.
func Batch(g *core.Grid, xs [][]float64, out []float64, opt Options) []float64 {
	if out == nil {
		out = make([]float64, len(xs))
	}
	BatchContext(context.Background(), g, xs, out, opt)
	return out
}

// tableBudget bounds the basis tables of one block (W·d·n entries of 16
// bytes) so they stay cache-resident beside the subspace coefficients
// they are combined with. 64 KiB gives width 64 at d=5 level 10 and 32
// at d=10 levels 7–8 (DESIGN.md §8.1).
const tableBudget = 64 << 10

// residentBudget is the largest coefficient array treated as
// cache-resident. On such a grid blocking only amortizes the sweep's
// per-subspace overhead, which 16 points already do; wider blocks just
// crowd L1 and measured slower with two workers (DESIGN.md §8.1).
const residentBudget = 1 << 20

// blockWidth is the derived block width for g: 16 on a cache-resident
// grid, else 64 — each halved until the block tables fit tableBudget.
func blockWidth(g *core.Grid) int {
	w := 64
	if g.MemoryBytes() <= residentBudget {
		w = 16
	}
	for w > 1 && w*g.Dim()*g.Level()*16 > tableBudget {
		w /= 2
	}
	return w
}

// BatchContext is Batch with a mandatory output slice, and it stops at
// the first cache-block boundary after ctx ends, returning ctx.Err();
// out then holds the finished blocks' values and is otherwise unwritten.
// It is one block-major kernel for every Options value. The batch is
// cut into blocks of min(len(xs), width) points, and whole blocks are
// dealt statically to workers (DESIGN.md §10). A one-worker call sweeps
// on the calling goroutine, so it spawns and allocates nothing. A
// multi-worker call runs every share on its own goroutine and only
// waits: were the caller to sweep a share itself, the goroutine it
// spawned last would sit in its P's runnext slot, which other Ps steal
// from only after a back-off. xs and out are never reassigned here, so
// the worker closures capture them by value — a captured, reassigned
// parameter would be heap-boxed on every call, the sequential path
// included.
func BatchContext(ctx context.Context, g *core.Grid, xs [][]float64, out []float64, opt Options) error {
	bs := opt.BlockSize
	if bs <= 0 {
		bs = blockWidth(g)
	}
	w := min(bs, len(xs))
	if w == 0 {
		return nil
	}
	workers := min(par.Resolve(opt.Workers), (len(xs)+w-1)/w)
	if workers == 1 {
		return sweep(ctx, g, xs, out, w)
	}
	var wg sync.WaitGroup
	var stopped atomic.Bool
	for i := 0; i < workers; i++ {
		lo, hi := par.AlignedSplit(int64(len(xs)), workers, i, int64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sweep(ctx, g, xs[lo:hi], out[lo:hi], w) != nil {
				stopped.Store(true)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// sweep evaluates xs block by block, w points per block, reusing one
// pooled scratch. Before each block it checks ctx; a context that can
// never end has a nil Done channel, so the check costs nothing there.
func sweep(ctx context.Context, g *core.Grid, xs [][]float64, out []float64, w int) error {
	done := ctx.Done()
	desc := g.Desc()
	sc := getBlockScratch(w, desc.Dim(), desc.Level())
	defer putBlockScratch(sc)
	for lo := 0; lo < len(xs); lo += w {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		hi := min(lo+w, len(xs))
		evalBlock(g, xs[lo:hi], out[lo:hi], sc)
	}
	return nil
}

// evalBlock accumulates all subspace contributions for one block of
// query points, subspace-major: every run of subspace coefficients is
// streamed once per block of query points, so it is read from cache
// rather than memory for all but the first point of the block (paper
// Sec. 4.3, last paragraph). The per-point basis tables are built once
// up front (O(block·d·n)); the sweep then touches each point with pure
// lookups.
//
// The sweep walks each level group in diagonals: the r+1 consecutive
// subspaces (r-j, j, l[2:]), j = 0..r, that share the suffix l[2:].
// Each point keeps a stack of partial folds over dimensions d-1..t.
// Next reports the highest component it changed, so between diagonals
// only the partials from there down to dimension 2 are refolded. A
// diagonal is then one loop per point that folds dimensions 1 and 0
// onto the suffix partial and keeps the point's sum in a register.
// Every product is still multiplied over dimensions d-1..0 in order,
// and every sum added in subspace order, so the result is bit-identical
// to iterativeInto's at any width (DESIGN.md §8.1).
func evalBlock(g *core.Grid, xs [][]float64, out []float64, sc *blockScratch) {
	desc := g.Desc()
	data := g.Data
	d, n := sc.d, sc.n
	l := sc.l[:d]
	out = out[:len(xs)] // BCE: out[k] for k := range xs
	for k, x := range xs {
		out[k] = 0
		sc.build(k, x)
	}
	cell, phi, stack := sc.cell, sc.phi, sc.stack
	sfx := min(d, 2) // stack slot of the fold over the suffix l[2:]
	var index2 int64
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		sz := int64(1) << uint(grp)
		for hi := d - 1; hi >= 0; hi = core.Next(l) {
			// l = (r, 0, l[2:]) opens a diagonal; d = 1 has one
			// subspace per group.
			r := int(l[0])
			m := 1
			if d > 1 {
				m = r + 1
			}
			for k := range xs {
				tab := k * d * n
				st := stack[k*(d+1) : (k+1)*(d+1)]
				for t := hi; t >= 2; t-- {
					lt := l[t]
					j := tab + t*n + int(lt)
					st[t] = partial{st[t+1].prod * phi[j], st[t+1].index<<uint32(lt) + cell[j]}
				}
				c0, f0 := cell[tab:tab+n], phi[tab:tab+n]
				c1, f1 := unitCell, unitPhi
				if d > 1 {
					c1, f1 = cell[tab+n:tab+2*n], phi[tab+n:tab+2*n]
				}
				f1 = f1[:m]
				c1 = c1[:len(f1)] // BCE: c1[j] for j := range f1
				// index1 = (suffix<<j + c1[j])<<l0 + c0[l0], where j+l0 = r.
				prod, base := st[sfx].prod, index2+st[sfx].index<<uint(r)
				sum := out[k]
				for j, p1 := range f1 {
					l0 := uint(r-j) & 63 // < n; the mask spares the shift's range check
					sum += prod * p1 * f0[l0] * data[base+c1[j]<<l0+c0[l0]]
					base += sz
				}
				out[k] = sum
			}
			index2 += int64(m) * sz
			if d > 1 {
				l[0], l[1] = 0, int32(r) // the diagonal's last subspace
			}
		}
	}
}

// unitCell and unitPhi stand in for dimension 1's tables on a d = 1
// grid, whose one-subspace diagonals read only level 0 there: folding
// cell 0 and hat value 1 onto the empty fold changes neither index1
// nor, as 1·1 = 1 exactly, the product.
var (
	unitCell = []int64{0}
	unitPhi  = []float64{1}
)
