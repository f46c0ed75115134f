// Package compactsg is a compact-data-structure sparse grid library — a
// from-scratch Go implementation of Murarasu, Weidendorfer, Buse,
// Butnaru, Pflüger: "Compact Data Structure and Scalable Algorithms for
// the Sparse Grid Technique" (PPoPP 2011).
//
// A regular d-dimensional sparse grid of refinement level n represents a
// function on [0,1]^d with O(2^n · n^(d-1)) coefficients instead of the
// full grid's O(2^(n·d)). This package stores all coefficients in one
// flat array through a bijection between grid points and consecutive
// integers (no keys, no pointers — up to ~30× less memory than map- or
// tree-based layouts at d=10) and provides recursion-free, statically
// parallelizable compression (hierarchization) and decompression
// (evaluation) algorithms on top of it.
//
// # Quick start
//
//	g, err := compactsg.New(4, 8)            // 4 dimensions, level 8
//	g.Compress(f)                            // sample + hierarchize
//	y, err := g.Evaluate([]float64{.1, .2, .3, .4})
//
// Functions must vanish on the domain boundary; use NewWithBoundary for
// general functions. The internal packages expose the building blocks
// (index maps, alternative data structures, the GPU execution model) to
// the benchmark harness in cmd/sgbench.
package compactsg

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"compactsg/internal/boundary"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
)

// Grid is a regular sparse grid with zero-boundary support. It is in one
// of two states: nodal (holding function samples) or compressed (holding
// hierarchical coefficients). Compress and Decompress switch between
// them; Evaluate requires the compressed state.
type Grid struct {
	g          *core.Grid
	compressed bool
	workers    int
	// readonly marks a grid whose coefficients live in a read-only
	// memory mapping (see Open): mutating it would fault, so the
	// mutating methods refuse with ErrReadOnly instead.
	readonly bool
}

// ErrReadOnly is returned by mutating methods of a grid whose payload
// is a read-only memory mapping (loaded via Open in mmap mode).
var ErrReadOnly = errors.New("compactsg: grid is memory-mapped read-only")

// Option configures a Grid.
type Option func(*Grid) error

// WithWorkers sets the number of goroutines used by Compress,
// Decompress and EvaluateBatch. 0 means auto: the count resolves to
// GOMAXPROCS at each call, so the same artifact saturates a large host
// and stays sequential on a 1-CPU one. The default is 1 (sequential).
// The algorithms are bit-deterministic for any value — the static
// decomposition only changes which worker applies an update, never the
// update or its operand order.
func WithWorkers(n int) Option {
	return func(g *Grid) error {
		if n < 0 {
			return fmt.Errorf("compactsg: workers %d < 0 (0 means auto)", n)
		}
		g.workers = n
		return nil
	}
}

// New creates a zero-initialized sparse grid of the given dimensionality
// and refinement level. The paper's grids are level 11 with d = 1..10;
// d=10 holds 127,574,017 points (≈1 GB of float64).
func New(dim, level int, opts ...Option) (*Grid, error) {
	desc, err := core.NewDescriptor(dim, level)
	if err != nil {
		return nil, err
	}
	g := &Grid{g: core.NewGrid(desc), workers: 1}
	for _, o := range opts {
		if err := o(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Dim returns the dimensionality.
func (g *Grid) Dim() int { return g.g.Dim() }

// Level returns the refinement level.
func (g *Grid) Level() int { return g.g.Level() }

// Points returns the number of grid points.
func (g *Grid) Points() int64 { return g.g.Size() }

// MemoryBytes returns the size of the coefficient storage: 8 bytes per
// point and nothing else.
func (g *Grid) MemoryBytes() int64 { return g.g.MemoryBytes() }

// Compressed reports whether the grid currently holds hierarchical
// coefficients.
func (g *Grid) Compressed() bool { return g.compressed }

// Raw exposes the underlying compact grid for the benchmark harness and
// advanced use (the flat coefficient array in gp2idx order). For grids
// loaded via Open in mmap mode the array is read-only; writes fault.
func (g *Grid) Raw() *core.Grid { return g.g }

// ReadOnly reports whether the coefficient storage is a read-only
// memory mapping.
func (g *Grid) ReadOnly() bool { return g.readonly }

// Compress samples f at every grid point and hierarchizes in place —
// the paper's compression step (Fig. 1). f should vanish on the domain
// boundary; values elsewhere are representable but the interpolant is
// forced to 0 on ∂[0,1]^d. Compress panics on a read-only mapped grid
// (a clear panic beats the SIGSEGV writing the mapping would raise).
func (g *Grid) Compress(f func(x []float64) float64) {
	if g.readonly {
		panic("compactsg: Compress on a read-only memory-mapped grid")
	}
	g.g.Fill(f)
	hier.Parallel(g.g, g.workers)
	g.compressed = true
}

// CompressValues hierarchizes nodal values already stored via SetNodal
// (e.g. copied from a simulation output).
func (g *Grid) CompressValues() error {
	if g.readonly {
		return ErrReadOnly
	}
	if g.compressed {
		return errors.New("compactsg: grid is already compressed")
	}
	hier.Parallel(g.g, g.workers)
	g.compressed = true
	return nil
}

// Decompress converts hierarchical coefficients back to nodal values.
func (g *Grid) Decompress() error {
	if g.readonly {
		return ErrReadOnly
	}
	if !g.compressed {
		return errors.New("compactsg: grid is not compressed")
	}
	hier.DehierarchizeParallel(g.g, g.workers)
	g.compressed = false
	return nil
}

// SetNodal stores a nodal value at the grid point identified by level
// vector l and index vector i (0-based levels, odd indices).
func (g *Grid) SetNodal(l, i []int32, v float64) error {
	if g.readonly {
		return ErrReadOnly
	}
	if !g.g.Desc().Contains(l, i) {
		return fmt.Errorf("compactsg: (%v, %v) is not a point of this grid", l, i)
	}
	g.g.SetAt(l, i, v)
	return nil
}

// At returns the stored value (nodal or hierarchical, per state) at
// grid point (l, i).
func (g *Grid) At(l, i []int32) (float64, error) {
	if !g.g.Desc().Contains(l, i) {
		return 0, fmt.Errorf("compactsg: (%v, %v) is not a point of this grid", l, i)
	}
	return g.g.At(l, i), nil
}

// Evaluate interpolates the compressed grid at x ∈ [0,1]^d — the
// paper's decompression step.
func (g *Grid) Evaluate(x []float64) (float64, error) {
	if !g.compressed {
		return 0, errors.New("compactsg: Evaluate requires a compressed grid (call Compress first)")
	}
	if len(x) != g.Dim() {
		return 0, fmt.Errorf("compactsg: point has %d coordinates, grid has %d dimensions", len(x), g.Dim())
	}
	return eval.Iterative(g.g, x), nil
}

// EvaluateBatch interpolates at many points using the configured
// workers. The values go into out, which must hold at least len(xs)
// of them, or into a new slice when out is nil; the result is always
// len(xs) long. The points are evaluated in cache blocks whose width
// the kernel derives from the grid's shape (paper Sec. 4.3).
func (g *Grid) EvaluateBatch(xs [][]float64, out []float64) ([]float64, error) {
	return g.EvaluateBatchContext(context.Background(), xs, out)
}

// EvaluateBatchContext is EvaluateBatch that gives up when ctx ends:
// the kernel checks ctx before each cache block and returns ctx.Err()
// at the first block boundary after it ended, leaving out partly
// written.
func (g *Grid) EvaluateBatchContext(ctx context.Context, xs [][]float64, out []float64) ([]float64, error) {
	if !g.compressed {
		return nil, errors.New("compactsg: EvaluateBatch requires a compressed grid")
	}
	for k, x := range xs {
		if len(x) != g.Dim() {
			return nil, fmt.Errorf("compactsg: point %d has %d coordinates, grid has %d dimensions", k, len(x), g.Dim())
		}
	}
	if out == nil {
		out = make([]float64, len(xs))
	} else if len(out) < len(xs) {
		return nil, fmt.Errorf("compactsg: out holds %d values, batch has %d points", len(out), len(xs))
	}
	out = out[:len(xs)]
	if err := eval.BatchContext(ctx, g.g, xs, out, eval.Options{Workers: g.workers}); err != nil {
		return nil, err
	}
	return out, nil
}

// Integrate returns ∫ fs over [0,1]^d of the compressed grid, computed
// in closed form (one sequential pass over the coefficients).
func (g *Grid) Integrate() (float64, error) {
	if !g.compressed {
		return 0, errors.New("compactsg: Integrate requires a compressed grid")
	}
	return eval.Integrate(g.g), nil
}

// Threshold drops compressed coefficients with |α| ≤ eps (lossy
// compression on top of the structural one): it returns the surviving
// nonzero count and a rigorous L∞ bound on the introduced interpolation
// error (the sum of dropped magnitudes). Combine with SaveSparse.
func (g *Grid) Threshold(eps float64) (kept int64, errorBound float64, err error) {
	if g.readonly {
		return 0, 0, ErrReadOnly
	}
	if !g.compressed {
		return 0, 0, errors.New("compactsg: Threshold requires a compressed grid")
	}
	kept, errorBound = g.g.Threshold(eps)
	return kept, errorBound, nil
}

// SaveSparse writes only the nonzero coefficients (16 bytes each); for
// thresholded grids this beats the dense format below 50% density.
func (g *Grid) SaveSparse(w io.Writer) error {
	if !g.compressed {
		return errors.New("compactsg: SaveSparse requires a compressed grid")
	}
	_, err := g.g.WriteSparse(w)
	return err
}

// LoadSparse reads a grid written by SaveSparse; the result is in the
// compressed state.
func LoadSparse(r io.Reader, opts ...Option) (*Grid, error) {
	cg, err := core.ReadSparse(r)
	if err != nil {
		return nil, err
	}
	g := &Grid{g: cg, compressed: true, workers: 1}
	for _, o := range opts {
		if err := o(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Save writes the grid as a checksummed SGC2 snapshot (the current
// format): the compressed/nodal state travels in the header flags and
// the coefficient payload is page-aligned, so the file can later be
// loaded zero-copy via Open. Use SaveV1 for consumers that predate
// SGC2.
func (g *Grid) Save(w io.Writer) error {
	var flags core.SnapshotFlags
	if g.compressed {
		flags |= core.SnapCompressed
	}
	_, err := g.g.WriteSnapshot(w, flags)
	return err
}

// SaveV1 writes the legacy v1 container: a state byte followed by an
// unchecksummed "SGC1" stream. Load reads it forever; new artifacts
// should use Save.
func (g *Grid) SaveV1(w io.Writer) error {
	var state byte
	if g.compressed {
		state = 1
	}
	if _, err := w.Write([]byte{state}); err != nil {
		return err
	}
	_, err := g.g.WriteToV1(w)
	return err
}

// Load reads a grid written by Save (SGC2 snapshot) or SaveV1 (legacy
// state byte + SGC1), detected by the leading bytes. Always copies;
// Open maps snapshot files in place.
func Load(r io.Reader, opts ...Option) (*Grid, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("compactsg: reading container magic: %w", err)
	}
	var (
		cg         *core.Grid
		compressed bool
	)
	if string(magic) == core.SnapshotMagic {
		var flags core.SnapshotFlags
		cg, flags, err = core.ReadSnapshotGrid(br)
		if err != nil {
			return nil, err
		}
		compressed = flags&core.SnapCompressed != 0
	} else {
		var state [1]byte
		if _, err := io.ReadFull(br, state[:]); err != nil {
			return nil, fmt.Errorf("compactsg: reading state byte: %w", err)
		}
		if cg, err = core.ReadGrid(br); err != nil {
			return nil, err
		}
		compressed = state[0] == 1
	}
	g := &Grid{g: cg, compressed: compressed, workers: 1}
	for _, o := range opts {
		if err := o(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// LoadAny reads any container format, detected by its magic: SGC2
// snapshots and legacy v1 files written by Save/SaveV1, or the
// nonzeros-only format written by SaveSparse. The pipeline tools use it
// so all artifact kinds are interchangeable.
func LoadAny(r io.Reader, opts ...Option) (*Grid, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("compactsg: reading container magic: %w", err)
	}
	if string(magic) == "SGS1" {
		return LoadSparse(br, opts...)
	}
	return Load(br, opts...)
}

// BoundaryGrid is a sparse grid for functions with non-zero boundary
// values (the paper's extended context, Sec. 4.4): the interior compact
// grid plus 3^d − 1 lower-dimensional boundary faces sharing one array.
type BoundaryGrid struct {
	b          *boundary.Grid
	compressed bool
	workers    int
}

// NewWithBoundary creates an extended sparse grid. Options: WithWorkers
// (parallel face transforms).
func NewWithBoundary(dim, level int, opts ...Option) (*BoundaryGrid, error) {
	b, err := boundary.New(dim, level)
	if err != nil {
		return nil, err
	}
	// Reuse the Grid option machinery via a scratch carrier.
	carrier := &Grid{workers: 1}
	for _, o := range opts {
		if err := o(carrier); err != nil {
			return nil, err
		}
	}
	return &BoundaryGrid{b: b, workers: carrier.workers}, nil
}

// Dim returns the dimensionality.
func (g *BoundaryGrid) Dim() int { return g.b.Dim() }

// Level returns the refinement level.
func (g *BoundaryGrid) Level() int { return g.b.Level() }

// Points returns the total number of stored points (interior plus
// boundary faces).
func (g *BoundaryGrid) Points() int64 { return g.b.Size() }

// MemoryBytes returns the coefficient storage footprint.
func (g *BoundaryGrid) MemoryBytes() int64 { return g.b.MemoryBytes() }

// Compress samples f (no boundary restriction) and hierarchizes.
func (g *BoundaryGrid) Compress(f func(x []float64) float64) {
	g.b.Fill(f)
	g.b.HierarchizeParallel(g.workers)
	g.compressed = true
}

// Decompress restores nodal values.
func (g *BoundaryGrid) Decompress() error {
	if !g.compressed {
		return errors.New("compactsg: grid is not compressed")
	}
	g.b.DehierarchizeParallel(g.workers)
	g.compressed = false
	return nil
}

// Evaluate interpolates at x ∈ [0,1]^d.
func (g *BoundaryGrid) Evaluate(x []float64) (float64, error) {
	if !g.compressed {
		return 0, errors.New("compactsg: Evaluate requires a compressed grid")
	}
	if len(x) != g.Dim() {
		return 0, fmt.Errorf("compactsg: point has %d coordinates, grid has %d dimensions", len(x), g.Dim())
	}
	return g.b.Evaluate(x), nil
}

// Integrate returns ∫ fs over [0,1]^d of the compressed extended grid.
func (g *BoundaryGrid) Integrate() (float64, error) {
	if !g.compressed {
		return 0, errors.New("compactsg: Integrate requires a compressed grid")
	}
	return g.b.Integrate(), nil
}

// Save writes the extended grid as an SGC2 snapshot with the boundary
// flag set: the payload is the shared interior+faces coefficient array
// in the deterministic face layout of the boundary package.
func (g *BoundaryGrid) Save(w io.Writer) error {
	flags := core.SnapBoundary
	if g.compressed {
		flags |= core.SnapCompressed
	}
	_, err := core.EncodeSnapshot(w, g.Dim(), g.Level(), flags, g.b.Data)
	return err
}

// LoadBoundary reads an extended grid written by BoundaryGrid.Save. The
// snapshot layer cannot know the boundary point count (the face layout
// lives in this package), so the header's count is validated here
// against a freshly derived layout before the payload is accepted.
func LoadBoundary(r io.Reader, opts ...Option) (*BoundaryGrid, error) {
	info, data, err := core.DecodeSnapshot(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if !info.Boundary() {
		return nil, errors.New("compactsg: snapshot holds an interior grid, not a boundary-extended one (use Load)")
	}
	b, err := boundary.New(info.Dim, info.Level)
	if err != nil {
		return nil, err
	}
	if int64(len(b.Data)) != info.Count {
		return nil, fmt.Errorf("compactsg: boundary snapshot holds %d values, layout for d=%d level=%d expects %d", info.Count, info.Dim, info.Level, len(b.Data))
	}
	copy(b.Data, data)
	carrier := &Grid{workers: 1}
	for _, o := range opts {
		if err := o(carrier); err != nil {
			return nil, err
		}
	}
	return &BoundaryGrid{b: b, compressed: info.Compressed(), workers: carrier.workers}, nil
}
