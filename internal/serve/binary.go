package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"sync"
	"unsafe"

	"compactsg/internal/obs"
)

// The binary evaluation protocol: POST /v1/eval/bin moves the same
// batch evaluation as /v1/eval/batch, but as length-prefixed
// little-endian float64 frames instead of JSON — mirroring the SGC2
// snapshot's contiguous float64 block ("Contiguous Storage of Grid
// Data for Heterogeneous Computing"), so the coordinate block decodes
// as a single reinterpreted slice instead of a per-number parse.
//
// Request frame:
//
//	u16  LE  nameLen   grid name length in bytes (0 = default grid)
//	...      name      UTF-8 grid name
//	...      padding   zero bytes up to the next 8-byte boundary
//	u32  LE  n         number of evaluation points
//	u32  LE  d         coordinates per point (must match the grid)
//	n·d  f64 LE        coordinates, point-major
//
// Response frame (status 200):
//
//	u32  LE  n         number of values
//	u32  LE  reserved  zero
//	n    f64 LE        values, in request point order
//
// Errors are JSON {"error": ...} bodies with the usual status codes,
// so one error decoder serves both protocols. The padding keeps the
// coordinate block 8-byte aligned relative to the frame start: when
// the body buffer itself is 8-aligned (the pooled buffers are), the
// coordinate and value blocks are reinterpreted in place on
// little-endian hosts — zero copies, zero decode allocations at
// steady state.
//
// Frame strictness follows the SGC2 snapshot codec: padding bytes must
// be zero and the frame length must match the header exactly — a
// tolerant reader would let garbage ride along and turn wire bugs into
// silent data corruption.

// BinContentType is the content type of both binary frame directions.
const BinContentType = "application/x-compactsg-frame"

// binMaxName bounds the grid-name field; names are registry keys, not
// payloads.
const binMaxName = 256

// Frame decode errors (all reported to clients as 400s, except the
// point cap which is a 413 applied by the handler).
var (
	errFrameTruncated = errors.New("binary frame truncated")
	errFrameTrailing  = errors.New("binary frame has trailing bytes after the coordinate block")
	errFramePadding   = errors.New("binary frame padding bytes must be zero")
	errFrameName      = errors.New("binary frame grid name exceeds 256 bytes")
	errFrameShape     = errors.New("binary frame declares points with zero dimensions")
	errFrameEmptyDim  = errors.New("binary frame declares zero points with a nonzero dimension")
)

// hostLittleEndian reports whether float64 bit patterns can be
// reinterpreted from little-endian wire bytes without swapping.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// binFrame owns every buffer one binary request needs: the raw body,
// the decoded coordinate block, the point headers, the evaluation
// output and the response frame. Pooled so the steady-state request
// costs no allocations.
type binFrame struct {
	raw  []byte      // request body
	flat []float64   // coordinates (view into raw, or decoded copy)
	pts  [][]float64 // per-point headers into flat
	out  []float64   // evaluation output (view into resp, or copy)
	resp []byte      // response frame
}

var binFramePool = sync.Pool{New: func() any { return new(binFrame) }}

// binRequest is the parsed view of one request frame. name aliases the
// frame's raw buffer; pts alias its coordinate buffers.
type binRequest struct {
	name []byte
	n, d int
	pts  [][]float64
}

// aligned8 reports whether p's first byte sits on an 8-byte boundary
// (the empty slice is trivially aligned).
func aligned8(p []byte) bool {
	return len(p) == 0 || uintptr(unsafe.Pointer(&p[0]))%8 == 0
}

// decodeBinFrame parses one request frame from raw into fr's pooled
// buffers. On little-endian hosts with an 8-aligned buffer the
// coordinate block is reinterpreted in place; otherwise it is decoded
// into fr.flat. Either way fr.pts carries the per-point views
// EvaluateBatch wants, with no per-request allocation at steady state.
func decodeBinFrame(fr *binFrame, raw []byte) (binRequest, error) {
	if len(raw) < 2 {
		return binRequest{}, errFrameTruncated
	}
	nameLen := int(binary.LittleEndian.Uint16(raw))
	if nameLen > binMaxName {
		return binRequest{}, errFrameName
	}
	hdr := 2 + nameLen
	pad := (8 - hdr%8) % 8
	dataOff := hdr + pad + 8 // + u32 n + u32 d
	if len(raw) < dataOff {
		return binRequest{}, errFrameTruncated
	}
	for _, b := range raw[hdr : hdr+pad] {
		if b != 0 {
			return binRequest{}, errFramePadding
		}
	}
	n := int(binary.LittleEndian.Uint32(raw[hdr+pad:]))
	d := int(binary.LittleEndian.Uint32(raw[hdr+pad+4:]))
	if n > 0 && d == 0 {
		return binRequest{}, errFrameShape
	}
	if n == 0 && d != 0 {
		// The format admits exactly one encoding per request (like the
		// SGC2 snapshot codec): an empty batch is n=0, d=0.
		return binRequest{}, errFrameEmptyDim
	}
	want := uint64(n) * uint64(d) * 8
	if uint64(len(raw)-dataOff) < want {
		return binRequest{}, errFrameTruncated
	}
	if uint64(len(raw)-dataOff) > want {
		return binRequest{}, errFrameTrailing
	}

	total := n * d
	coords := raw[dataOff:]
	if hostLittleEndian && aligned8(coords) {
		// Zero-copy: the wire block IS the float64 slice.
		if total > 0 {
			fr.flat = unsafe.Slice((*float64)(unsafe.Pointer(&coords[0])), total)
		} else {
			fr.flat = fr.flat[:0]
		}
	} else {
		if cap(fr.flat) < total {
			fr.flat = make([]float64, total)
		}
		fr.flat = fr.flat[:total]
		for i := range fr.flat {
			fr.flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*i:]))
		}
	}
	if cap(fr.pts) < n {
		fr.pts = make([][]float64, n)
	}
	fr.pts = fr.pts[:n]
	for i := range fr.pts {
		fr.pts[i] = fr.flat[i*d : (i+1)*d : (i+1)*d]
	}
	return binRequest{name: raw[2:hdr], n: n, d: d, pts: fr.pts}, nil
}

// prepareBinResponse sizes fr.resp for n values, writes the response
// header, and returns the output slice EvaluateBatch should fill. On
// little-endian hosts the output aliases the response frame, so the
// encode stage after evaluation is free.
func prepareBinResponse(fr *binFrame, n int) []float64 {
	need := 8 + 8*n
	if cap(fr.resp) < need {
		fr.resp = make([]byte, need)
	}
	fr.resp = fr.resp[:need]
	binary.LittleEndian.PutUint32(fr.resp, uint32(n))
	binary.LittleEndian.PutUint32(fr.resp[4:], 0)
	vals := fr.resp[8:]
	if hostLittleEndian && aligned8(vals) && n > 0 {
		fr.out = unsafe.Slice((*float64)(unsafe.Pointer(&vals[0])), n)
	} else {
		if cap(fr.out) < n {
			fr.out = make([]float64, n)
		}
		fr.out = fr.out[:n]
	}
	return fr.out
}

// finishBinResponse folds fr.out into fr.resp when the two do not
// alias (big-endian or unaligned fallback) and returns the frame.
func finishBinResponse(fr *binFrame) []byte {
	vals := fr.resp[8:]
	if len(fr.out) > 0 && (!hostLittleEndian || !aligned8(vals) ||
		&fr.out[0] != (*float64)(unsafe.Pointer(&vals[0]))) {
		for i, v := range fr.out {
			binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(v))
		}
	}
	return fr.resp
}

// AppendEvalFrame appends a /v1/eval/bin request frame for pts to dst
// and returns the extended slice. The client half of decodeBinFrame,
// shared by sgload, sgstress, sgproxy and the tests. Every point must
// have len(pts[0]) coordinates: the frame takes d from pts[0] and
// appends every coordinate as one n·d block, so a ragged batch whose
// coordinate total happens to be n·d would be re-cut into points the
// caller never sent.
func AppendEvalFrame(dst []byte, grid string, pts [][]float64) []byte {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint16(lenBuf[:2], uint16(len(grid)))
	dst = append(dst, lenBuf[:2]...)
	dst = append(dst, grid...)
	pad := (8 - (2+len(grid))%8) % 8
	dst = append(dst, make([]byte, pad)...)
	d := 0
	if len(pts) > 0 {
		d = len(pts[0])
	}
	binary.LittleEndian.PutUint32(lenBuf[:4], uint32(len(pts)))
	binary.LittleEndian.PutUint32(lenBuf[4:8], uint32(d))
	dst = append(dst, lenBuf[:8]...)
	for _, x := range pts {
		for _, v := range x {
			binary.LittleEndian.PutUint64(lenBuf[:8], math.Float64bits(v))
			dst = append(dst, lenBuf[:8]...)
		}
	}
	return dst
}

// FrameGridName returns the grid-name bytes of a request frame without
// decoding the coordinate block — just enough for a routing layer
// (cmd/sgproxy) to pick the owning shard before forwarding the frame
// verbatim. The returned slice aliases raw.
func FrameGridName(raw []byte) ([]byte, error) {
	if len(raw) < 2 {
		return nil, errFrameTruncated
	}
	nameLen := int(binary.LittleEndian.Uint16(raw))
	if nameLen > binMaxName {
		return nil, errFrameName
	}
	if len(raw) < 2+nameLen {
		return nil, errFrameTruncated
	}
	return raw[2 : 2+nameLen], nil
}

// ParseValuesFrame decodes a /v1/eval/bin response frame.
func ParseValuesFrame(data []byte) ([]float64, error) {
	if len(data) < 8 {
		return nil, errFrameTruncated
	}
	n := int(binary.LittleEndian.Uint32(data))
	if binary.LittleEndian.Uint32(data[4:]) != 0 {
		return nil, errors.New("binary response frame has a nonzero reserved field")
	}
	if uint64(len(data)-8) != uint64(n)*8 {
		return nil, errFrameTruncated
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return out, nil
}

// handleEvalBin is the binary twin of handleEvalBatch: the same
// evaluate pipeline behind a different wire format.
func (s *Server) handleEvalBin(w http.ResponseWriter, r *http.Request) error {
	sp := obs.FromContext(r.Context())
	fr := binFramePool.Get().(*binFrame)
	defer binFramePool.Put(fr)

	sp.Begin(obs.StageDecode)
	var req binRequest
	var err error
	if fr.raw, err = ReadBody(fr.raw, r.Body, s.cfg.MaxBodyBytes); err == nil {
		if req, err = decodeBinFrame(fr, fr.raw); err != nil {
			err = Errorf(http.StatusBadRequest, "invalid binary frame: %v", err)
		}
	}
	sp.End(obs.StageDecode)
	if err != nil {
		return err
	}

	// Resolve the name against the registry's interned copy so the hot
	// path never materializes a string from the wire bytes.
	name, ok := s.grids.CanonicalName(req.name)
	if !ok {
		if len(req.name) != 0 {
			return Errorf(http.StatusNotFound, "%v %q", ErrUnknownGrid, string(req.name))
		}
		if name, err = s.resolveGrid(""); err != nil {
			return err
		}
	}
	if err := s.evaluate(r.Context(), name, req.pts, prepareBinResponse(fr, req.n), false); err != nil {
		return err
	}
	sp.SetStatus(http.StatusOK)
	sp.Begin(obs.StageEncode)
	s.front.WriteBody(w, http.StatusOK, BinContentType, finishBinResponse(fr))
	sp.End(obs.StageEncode)
	return nil
}
