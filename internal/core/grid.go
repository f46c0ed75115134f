package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Grid is the compact sparse grid: a descriptor plus one flat coefficient
// array ordered by gp2idx. Before hierarchization Data holds nodal values
// (function samples at the grid points); afterwards it holds hierarchical
// coefficients (surpluses). Nothing else is stored — this is the paper's
// minimal-memory representation.
type Grid struct {
	desc *Descriptor
	Data []float64
}

// NewGrid allocates a zero-initialized grid for the descriptor.
func NewGrid(desc *Descriptor) *Grid {
	return &Grid{desc: desc, Data: make([]float64, desc.Size())}
}

// GridFromData wraps an existing coefficient slice as a grid without
// copying; the caller keeps ownership of the storage. The boundary
// extension uses this to view the face sub-grids embedded in one shared
// array.
func GridFromData(desc *Descriptor, data []float64) (*Grid, error) {
	if int64(len(data)) != desc.Size() {
		return nil, fmt.Errorf("core: data holds %d values, descriptor needs %d", len(data), desc.Size())
	}
	return &Grid{desc: desc, Data: data}, nil
}

// Desc returns the grid's descriptor.
func (g *Grid) Desc() *Descriptor { return g.desc }

// Dim returns the dimensionality.
func (g *Grid) Dim() int { return g.desc.dim }

// Level returns the refinement level.
func (g *Grid) Level() int { return g.desc.level }

// Size returns the number of grid points.
func (g *Grid) Size() int64 { return g.desc.Size() }

// At returns the coefficient stored for grid point (l, i).
func (g *Grid) At(l, i []int32) float64 { return g.Data[g.desc.GP2Idx(l, i)] }

// SetAt stores v for grid point (l, i).
func (g *Grid) SetAt(l, i []int32, v float64) { g.Data[g.desc.GP2Idx(l, i)] = v }

// Fill samples f at every grid point, storing nodal values. It walks
// subspaces in storage order so writes are sequential.
func (g *Grid) Fill(f func(x []float64) float64) {
	d := g.desc
	l := make([]int32, d.dim)
	i := make([]int32, d.dim)
	x := make([]float64, d.dim)
	idx := int64(0)
	for grp := 0; grp < d.level; grp++ {
		First(l, grp)
		for {
			n := int64(1) << uint(grp)
			for p := int64(0); p < n; p++ {
				DecodeIndex1(p, l, i)
				Coords(l, i, x)
				g.Data[idx] = f(x)
				idx++
			}
			if Next(l) < 0 {
				break
			}
		}
	}
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := &Grid{desc: g.desc, Data: make([]float64, len(g.Data))}
	copy(c.Data, g.Data)
	return c
}

// MemoryBytes returns the memory footprint of the coefficient storage:
// 8 bytes per point, nothing else (keys and structure are implicit in
// gp2idx). Descriptor tables are excluded: they are O(d·n) and shared.
func (g *Grid) MemoryBytes() int64 { return int64(len(g.Data)) * 8 }

// Serialization. Two container generations exist:
//
//	v1 "SGC1": magic | uint32 dim | uint32 level | uint64 count |
//	           count × float64, all little-endian. Legacy; copy-only.
//	v2 "SGC2": checksummed snapshot with a page-aligned payload that can
//	           be memory-mapped in place — see snapshot.go.
//
// Writers emit v2; ReadGrid sniffs the magic and reads either, so v1
// artifacts remain loadable forever.

const gridMagic = "SGC1"

// WriteTo serializes the grid in the current (v2 snapshot) container
// with no flags set. It implements io.WriterTo. Callers that need to
// record payload semantics (compressed, boundary) use WriteSnapshot.
func (g *Grid) WriteTo(w io.Writer) (int64, error) {
	return g.WriteSnapshot(w, 0)
}

// WriteSnapshot serializes the grid as a v2 snapshot with the given
// flags (SnapBoundary is the boundary layer's business and rejected
// here).
func (g *Grid) WriteSnapshot(w io.Writer, flags SnapshotFlags) (int64, error) {
	if flags&SnapBoundary != 0 {
		return 0, fmt.Errorf("core: an interior grid cannot carry the boundary snapshot flag")
	}
	return EncodeSnapshot(w, g.desc.dim, g.desc.level, flags, g.Data)
}

// WriteToV1 serializes the grid in the legacy v1 container, for
// interoperability with consumers that predate SGC2.
func (g *Grid) WriteToV1(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	m, err := bw.WriteString(gridMagic)
	n += int64(m)
	if err != nil {
		return n, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.desc.dim))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.desc.level))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.Data)))
	m, err = bw.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	var buf [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		m, err = bw.Write(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadGrid deserializes a grid written by WriteTo or WriteToV1,
// sniffing the container magic. Headers are untrusted: the declared
// count must match the descriptor exactly and the total payload must
// fit under MaxDecodeBytes before anything is allocated, and the
// allocation itself grows only as payload bytes actually arrive — a
// 29-byte header claiming 2^60 values costs nothing.
func ReadGrid(r io.Reader) (*Grid, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, corruptf(gridMagic, noEOF(err), "reading grid magic")
	}
	if string(magic) == SnapshotMagic {
		g, _, err := ReadSnapshotGrid(br)
		return g, err
	}
	return readGridV1(br)
}

// readGridV1 reads the legacy SGC1 container (no checksum, copy-only).
func readGridV1(br *bufio.Reader) (*Grid, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading grid magic: %w", err)
	}
	if string(magic) != gridMagic {
		return nil, fmt.Errorf("core: bad grid magic %q", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading grid header: %w", err)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[0:]))
	level := int(binary.LittleEndian.Uint32(hdr[4:]))
	count := binary.LittleEndian.Uint64(hdr[8:])
	desc, err := NewDescriptor(dim, level)
	if err != nil {
		return nil, err
	}
	if count != uint64(desc.Size()) {
		return nil, corruptf(gridMagic, nil, "grid payload holds %d values, descriptor expects %d", count, desc.Size())
	}
	if desc.Size() > MaxDecodeBytes/8 {
		return nil, corruptf(gridMagic, nil, "payload of %d values (%d bytes) exceeds the %d-byte decode cap", desc.Size(), desc.Size()*8, MaxDecodeBytes)
	}
	data, _, err := readFloats(br, desc.Size(), false)
	if err != nil {
		return nil, corruptf(gridMagic, noEOF(err), "reading %d grid values", desc.Size())
	}
	return GridFromData(desc, data)
}
