package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compactsg/internal/core"
)

// postBin drives one binary frame through the full handler stack.
func postBin(t *testing.T, h http.Handler, frame []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/eval/bin", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestBinaryEvalRoundTrip(t *testing.T) {
	s, refs := newTestServer(t, Config{}, 3)
	h := s.Handler()
	ref := refs["g3"]

	pts := [][]float64{
		{0.25, 0.5, 0.75},
		{0, 0, 0},
		{1, 1, 1},
		{0.1, 0.9, 0.3},
	}
	rec := postBin(t, h, AppendEvalFrame(nil, "g3", pts))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Type"); got != BinContentType {
		t.Errorf("Content-Type = %q, want %q", got, BinContentType)
	}
	vals, err := ParseValuesFrame(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("parsing response frame: %v", err)
	}
	if len(vals) != len(pts) {
		t.Fatalf("%d values for %d points", len(vals), len(pts))
	}
	for k, x := range pts {
		want, err := ref.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vals[k]-want) > 1e-12 {
			t.Errorf("point %d: got %g want %g", k, vals[k], want)
		}
	}

	// Empty grid name resolves to the only registered grid.
	rec = postBin(t, h, AppendEvalFrame(nil, "", pts[:1]))
	if rec.Code != http.StatusOK {
		t.Fatalf("default-grid frame: status %d body %s", rec.Code, rec.Body)
	}

	// n = 0 answers an empty values frame.
	rec = postBin(t, h, AppendEvalFrame(nil, "g3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("empty frame: status %d body %s", rec.Code, rec.Body)
	}
	if vals, err := ParseValuesFrame(rec.Body.Bytes()); err != nil || len(vals) != 0 {
		t.Fatalf("empty frame: vals=%v err=%v", vals, err)
	}
}

func TestBinaryEvalErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatchPoints: 8, MaxBodyBytes: 1 << 16}, 3)
	h := s.Handler()
	good := AppendEvalFrame(nil, "g3", [][]float64{{0.5, 0.5, 0.5}})

	corrupt := func(mutate func([]byte) []byte) []byte {
		frame := append([]byte(nil), good...)
		return mutate(frame)
	}
	cases := []struct {
		name   string
		frame  []byte
		status int
		errSub string
	}{
		{"empty body", nil, http.StatusBadRequest, "truncated"},
		{"short header", []byte{1}, http.StatusBadRequest, "truncated"},
		{"truncated coords", good[:len(good)-8], http.StatusBadRequest, "truncated"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), http.StatusBadRequest, "trailing"},
		{"nonzero padding", corrupt(func(f []byte) []byte { f[2+2] ^= 0xff; return f }), http.StatusBadRequest, "padding"},
		{"oversized name", func() []byte {
			var f []byte
			f = binary.LittleEndian.AppendUint16(f, 300)
			return append(f, make([]byte, 300)...)
		}(), http.StatusBadRequest, "name"},
		{"unknown grid", AppendEvalFrame(nil, "nope", [][]float64{{0.5, 0.5, 0.5}}), http.StatusNotFound, "unknown grid"},
		{"wrong dimension", AppendEvalFrame(nil, "g3", [][]float64{{0.5, 0.5}}), http.StatusBadRequest, "dimensions"},
		{"out of domain", AppendEvalFrame(nil, "g3", [][]float64{{0.5, 2.5, 0.5}}), http.StatusBadRequest, "domain"},
		{"NaN coordinate", AppendEvalFrame(nil, "g3", [][]float64{{0.5, math.NaN(), 0.5}}), http.StatusBadRequest, "domain"},
		{"too many points", AppendEvalFrame(nil, "g3", make([][]float64, 9, 9)), http.StatusRequestEntityTooLarge, "cap"},
	}
	// The too-many-points case needs real coordinate data.
	for i := range cases {
		if cases[i].name == "too many points" {
			pts := make([][]float64, 9)
			for k := range pts {
				pts[k] = []float64{0.1, 0.2, 0.3}
			}
			cases[i].frame = AppendEvalFrame(nil, "g3", pts)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postBin(t, h, c.frame)
			if rec.Code != c.status {
				t.Fatalf("status %d body %s, want %d", rec.Code, rec.Body, c.status)
			}
			if !strings.Contains(rec.Body.String(), c.errSub) {
				t.Errorf("error body %q does not mention %q", rec.Body, c.errSub)
			}
		})
	}

	// Oversized body → 413 from ReadBody's cap.
	big := AppendEvalFrame(nil, "g3", func() [][]float64 {
		pts := make([][]float64, 4000)
		for k := range pts {
			pts[k] = []float64{0.1, 0.2, 0.3}
		}
		return pts
	}())
	if len(big) <= 1<<16 {
		t.Fatalf("test frame not oversized: %d bytes", len(big))
	}
	rec := postBin(t, h, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
}

// TestBinaryRequestsMetric: binary traffic shows up under its own
// protocol label.
func TestBinaryRequestsMetric(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2)
	h := s.Handler()
	postBin(t, h, AppendEvalFrame(nil, "g2", [][]float64{{0.5, 0.5}}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := `sgserve_requests_total{handler="eval_bin",protocol="bin"} 1`
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestDecodeBinFrameFallback forces the copying decode path (unaligned
// buffer) and checks it agrees with the zero-copy one.
func TestDecodeBinFrameFallback(t *testing.T) {
	pts := [][]float64{{0.125, 0.375}, {0.625, 0.875}}
	frame := AppendEvalFrame(nil, "grid-x", pts)

	// Shift the frame one byte inside a larger buffer so the coordinate
	// block cannot be 8-aligned.
	buf := make([]byte, len(frame)+1)
	copy(buf[1:], frame)
	unaligned := buf[1:]

	for _, raw := range [][]byte{frame, unaligned} {
		fr := &binFrame{}
		req, err := decodeBinFrame(fr, raw)
		if err != nil {
			t.Fatal(err)
		}
		if string(req.name) != "grid-x" || req.n != 2 || req.d != 2 {
			t.Fatalf("decoded name=%q n=%d d=%d", req.name, req.n, req.d)
		}
		for k := range pts {
			for j := range pts[k] {
				if req.pts[k][j] != pts[k][j] {
					t.Fatalf("pts[%d][%d] = %g, want %g", k, j, req.pts[k][j], pts[k][j])
				}
			}
		}
	}
}

// TestBinaryDecodeZeroAlloc: the decode side of the binary path must be
// allocation-free at steady state (the ISSUE's acceptance criterion).
func TestBinaryDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	pts := make([][]float64, 64)
	for k := range pts {
		pts[k] = []float64{0.25, 0.5, 0.75}
	}
	frame := AppendEvalFrame(nil, "g", pts)
	fr := &binFrame{}
	// Warm the frame's internal buffers.
	if _, err := decodeBinFrame(fr, frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeBinFrame(fr, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decodeBinFrame allocates %.1f times per frame at steady state, want 0", allocs)
	}
}

// TestBinaryEvalSteadyStateAllocs bounds the whole binary request path
// (handler included) once pools are warm.
func TestBinaryEvalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	s, _ := newTestServer(t, Config{TraceRing: -1}, 3)
	h := s.Handler()
	pts := make([][]float64, 32)
	for k := range pts {
		pts[k] = []float64{0.25, 0.5, 0.75}
	}
	frame := AppendEvalFrame(nil, "g3", pts)
	// Warm: first requests grow the pooled buffers and load the grid.
	for i := 0; i < 8; i++ {
		if rec := postBin(t, h, frame); rec.Code != http.StatusOK {
			t.Fatalf("warmup status %d body %s", rec.Code, rec.Body)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		req := httptest.NewRequest("POST", "/v1/eval/bin", bytes.NewReader(frame))
		req.Header.Set("Content-Type", BinContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatal(rec.Code)
		}
	})
	// The harness itself (NewRequest, recorder, header map) plus the
	// handler's goroutine/channel/context machinery allocate; the point
	// is that the figure stays small and flat — the decode/encode hot
	// path contributes nothing that scales with the 32-point payload.
	t.Logf("binary request path: %.1f allocs/request (harness included)", allocs)
	if allocs > 120 {
		t.Errorf("binary request path allocates %.1f times per request; decode/encode is supposed to be pooled", allocs)
	}
}

func TestParseValuesFrameErrors(t *testing.T) {
	if _, err := ParseValuesFrame(nil); err == nil {
		t.Error("nil frame parsed")
	}
	if _, err := ParseValuesFrame(make([]byte, 7)); err == nil {
		t.Error("short frame parsed")
	}
	bad := make([]byte, 8)
	binary.LittleEndian.PutUint32(bad, 2) // declares 2 values, carries 0
	if _, err := ParseValuesFrame(bad); err == nil {
		t.Error("count/length mismatch parsed")
	}
	rsv := make([]byte, 8)
	binary.LittleEndian.PutUint32(rsv[4:], 7)
	if _, err := ParseValuesFrame(rsv); err == nil {
		t.Error("nonzero reserved field parsed")
	}
}

// TestBinaryTimeoutAnswers503: the bin path shares the eval pipeline's
// timeout behavior (503 + JSON error body). The evaluation parks in the
// eval stage until its deadline passes; the kernel then stops before
// its first block, and the lease is released before the response is
// written.
func TestBinaryTimeoutAnswers503(t *testing.T) {
	baseline := core.ActiveMappings()
	s, _ := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond}, 2)
	s.evalGate = func(ctx context.Context, _ string) { <-ctx.Done() }
	rec := postBin(t, s.Handler(), AppendEvalFrame(nil, "g2", [][]float64{{0.5, 0.5}}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d body %s, want 503", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("error Content-Type = %q, want JSON", ct)
	}
	if n := s.met.points.Value(); n != 0 {
		t.Errorf("timed-out request counted %d evaluated points, want 0", n)
	}
	s.Close()
	if got := core.ActiveMappings(); got != baseline {
		t.Fatalf("after Close: ActiveMappings %d, want %d", got, baseline)
	}
}

// FuzzBinaryFrame hammers the frame decoder with arbitrary bytes: it
// must never panic, and any frame it accepts must satisfy the format's
// own invariants (so a round-trip re-encode reproduces the input).
func FuzzBinaryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEvalFrame(nil, "g", [][]float64{{0.5, 0.25}}))
	f.Add(AppendEvalFrame(nil, "", nil))
	f.Add(AppendEvalFrame(nil, strings.Repeat("n", 255), [][]float64{{1}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr := &binFrame{}
		req, err := decodeBinFrame(fr, raw)
		if err != nil {
			return
		}
		if req.n < 0 || req.d < 0 || len(req.pts) != req.n {
			t.Fatalf("accepted frame with inconsistent shape: n=%d d=%d pts=%d", req.n, req.d, len(req.pts))
		}
		for k := range req.pts {
			if len(req.pts[k]) != req.d {
				t.Fatalf("point %d has %d coords, frame declares %d", k, len(req.pts[k]), req.d)
			}
		}
		if len(req.name) > binMaxName {
			t.Fatalf("accepted %d-byte name", len(req.name))
		}
		// Round-trip: re-encoding the accepted frame must reproduce the
		// input byte-for-byte (the format admits exactly one encoding).
		back := AppendEvalFrame(nil, string(req.name), req.pts)
		if !bytes.Equal(back, raw) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", raw, back)
		}
	})
}

// FuzzEvalEndpointsAgree: the three eval endpoints run one pipeline,
// so the same points get the same answers from each. /v1/eval/batch and
// /v1/eval/bin give the same status and, on 200, Float64bits-identical
// values; each point's coalesced /v1/eval gives its slot's value, and a
// batch answers 200 exactly when every one of its points does. The
// input is a dimension byte (1 + dim%4 coordinates a point, against a
// d=3 grid) and up to 8 points of little-endian float64s; JSON carries
// no NaN or Inf, so inputs holding one are skipped.
func FuzzEvalEndpointsAgree(f *testing.F) {
	path, _ := writeGrid(f, f.TempDir(), 3, 4)
	s := New(Config{Coalesce: true, MaxBatch: 1})
	f.Cleanup(func() { s.Close() })
	if err := s.AddGrid("g", path); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	seed := func(pts ...[]float64) {
		var raw []byte
		for _, x := range pts {
			for _, v := range x {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
			}
		}
		f.Add(uint8(len(pts[0])-1), raw)
	}
	seed([]float64{0, 0, 0}, []float64{1, 1, 1}, []float64{0, 1, 0}, []float64{1, 0, 1})
	seed([]float64{0.25, 0.5, 0.75})
	seed([]float64{math.Copysign(0, -1), 0.5, 1})
	seed([]float64{0.5, 0.5, 0.5}, []float64{math.Nextafter(1, 2), 0.5, 0.5})
	seed([]float64{0.5, 0.5}, []float64{0.25, 0.75})
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		d := 1 + int(dim)%4
		pts := make([][]float64, min(8, len(raw)/(8*d)))
		if len(pts) == 0 {
			return
		}
		for k := range pts {
			pts[k] = make([]float64, d)
			for i := range pts[k] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(k*d+i):]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
				pts[k][i] = v
			}
		}
		batch := postJSON(t, h, "/v1/eval/batch", BatchRequest{Grid: "g", Points: pts})
		bin := postBin(t, h, AppendEvalFrame(nil, "g", pts))
		if batch.Code != bin.Code {
			t.Fatalf("status: batch %d (%s), bin %d (%s)", batch.Code, batch.Body, bin.Code, bin.Body)
		}
		var vals []float64
		if batch.Code == http.StatusOK {
			var br batchResponse
			if err := json.Unmarshal(batch.Body.Bytes(), &br); err != nil {
				t.Fatal(err)
			}
			binVals, err := ParseValuesFrame(bin.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if len(br.Values) != len(pts) || len(binVals) != len(pts) {
				t.Fatalf("%d points: batch %d values, bin %d", len(pts), len(br.Values), len(binVals))
			}
			for k := range pts {
				if math.Float64bits(br.Values[k]) != math.Float64bits(binVals[k]) {
					t.Fatalf("point %d %v: batch %v, bin %v", k, pts[k], br.Values[k], binVals[k])
				}
			}
			vals = br.Values
		}
		all := true
		for k, x := range pts {
			rec, v := evalOne(t, h, "/v1/eval", "g", x)
			if rec.Code != http.StatusOK {
				all = false
				continue
			}
			if vals != nil && math.Float64bits(v) != math.Float64bits(vals[k]) {
				t.Fatalf("point %d %v: /v1/eval %v, batch %v", k, x, v, vals[k])
			}
		}
		if all != (batch.Code == http.StatusOK) {
			t.Fatalf("batch status %d, but every point alone answered 200: %v", batch.Code, all)
		}
	})
}

// TestAppendEvalFrameAlignment pins the format's padding rule across
// name lengths (the fuzz round-trip depends on it).
func TestAppendEvalFrameAlignment(t *testing.T) {
	for nameLen := 0; nameLen <= 16; nameLen++ {
		name := strings.Repeat("x", nameLen)
		frame := AppendEvalFrame(nil, name, [][]float64{{0.5}})
		hdr := 2 + nameLen
		pad := (8 - hdr%8) % 8
		wantLen := hdr + pad + 8 + 8
		if len(frame) != wantLen {
			t.Errorf("nameLen %d: frame is %d bytes, want %d", nameLen, len(frame), wantLen)
		}
		fr := &binFrame{}
		req, err := decodeBinFrame(fr, frame)
		if err != nil {
			t.Errorf("nameLen %d: %v", nameLen, err)
			continue
		}
		if string(req.name) != name {
			t.Errorf("nameLen %d: name %q", nameLen, req.name)
		}
	}
}
