package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// specialValues seeds the coordinate generator with the encodings that
// break naive float64 codecs: signed zero, subnormals, infinities and
// NaN payloads must all survive the wire bit-for-bit.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specialValues[rng.Intn(len(specialValues))]
	}
	return rng.NormFloat64()
}

// TestFrameRoundTripProperty drives randomized frames through the full
// codec: AppendEvalFrame → decodeBinFrame must reproduce the name and
// every coordinate bit-for-bit, re-encoding the decoded request must
// reproduce the original bytes (the encoding is canonical — one frame
// per request), and the response half (prepareBinResponse →
// finishBinResponse → ParseValuesFrame) must round-trip the values the
// same way. FrameGridName, the proxy's routing peek, must agree with
// the full decode on every frame.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		nameLen := rng.Intn(binMaxName + 1)
		nameBytes := make([]byte, nameLen)
		rng.Read(nameBytes)
		name := string(nameBytes)

		n := rng.Intn(33)
		d := 0
		if n > 0 {
			d = 1 + rng.Intn(16)
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = randFloat(rng)
			}
		}

		frame := AppendEvalFrame(nil, name, pts)

		peek, err := FrameGridName(frame)
		if err != nil {
			t.Fatalf("iter %d: FrameGridName: %v", iter, err)
		}
		if string(peek) != name {
			t.Fatalf("iter %d: FrameGridName = %q, want %q", iter, peek, name)
		}

		fr := new(binFrame)
		req, err := decodeBinFrame(fr, frame)
		if err != nil {
			t.Fatalf("iter %d: decode (name %d bytes, n=%d d=%d): %v", iter, nameLen, n, d, err)
		}
		if string(req.name) != name || req.n != n || req.d != d {
			t.Fatalf("iter %d: decoded (name %q, n=%d, d=%d), want (%q, %d, %d)",
				iter, req.name, req.n, req.d, name, n, d)
		}
		for i := range pts {
			for j := range pts[i] {
				if math.Float64bits(req.pts[i][j]) != math.Float64bits(pts[i][j]) {
					t.Fatalf("iter %d: point %d coord %d: 0x%x, want 0x%x",
						iter, i, j, math.Float64bits(req.pts[i][j]), math.Float64bits(pts[i][j]))
				}
			}
		}
		if re := AppendEvalFrame(nil, string(req.name), req.pts); !bytes.Equal(re, frame) {
			t.Fatalf("iter %d: re-encoding the decoded request changed the bytes (%d vs %d)", iter, len(re), len(frame))
		}

		// Response half with the same value set.
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = randFloat(rng)
		}
		rfr := new(binFrame)
		out := prepareBinResponse(rfr, n)
		copy(out, vals)
		resp := finishBinResponse(rfr)
		back, err := ParseValuesFrame(resp)
		if err != nil {
			t.Fatalf("iter %d: ParseValuesFrame: %v", iter, err)
		}
		if len(back) != n {
			t.Fatalf("iter %d: %d values back, want %d", iter, len(back), n)
		}
		for i := range vals {
			if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("iter %d: value %d: 0x%x, want 0x%x",
					iter, i, math.Float64bits(back[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// TestFrameEmptyBatchCanonical pins the n=0 frame: exactly 16 bytes
// (length prefix, six zero pad bytes, n=0, d=0), accepted by the
// decoder, answered by an 8-byte empty values frame.
func TestFrameEmptyBatchCanonical(t *testing.T) {
	frame := AppendEvalFrame(nil, "", nil)
	want := make([]byte, 16)
	if !bytes.Equal(frame, want) {
		t.Fatalf("empty frame = % x, want 16 zero bytes", frame)
	}
	fr := new(binFrame)
	req, err := decodeBinFrame(fr, frame)
	if err != nil || req.n != 0 || req.d != 0 {
		t.Fatalf("decode empty frame: req=%+v err=%v", req, err)
	}

	rfr := new(binFrame)
	prepareBinResponse(rfr, 0)
	resp := finishBinResponse(rfr)
	if len(resp) != 8 {
		t.Fatalf("empty response frame is %d bytes, want 8", len(resp))
	}
	if vals, err := ParseValuesFrame(resp); err != nil || len(vals) != 0 {
		t.Fatalf("empty response: vals=%v err=%v", vals, err)
	}
}

// TestBinaryLargeBatchOverHTTP sends a >64 KiB frame through a real
// HTTP server (not httptest recorders), so the server-side body read
// crosses multiple TCP segments and the pooled ReadBody growth path is
// exercised, and verifies every value against the reference grid.
func TestBinaryLargeBatchOverHTTP(t *testing.T) {
	s, refs := newTestServer(t, Config{}, 4)
	ref := refs["g4"]
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(11))
	const n = 2100 // 2 + pad + 8 + 2100·4·8 = 67 KiB of frame
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 4)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	frame := AppendEvalFrame(nil, "g4", pts)
	if len(frame) <= 64<<10 {
		t.Fatalf("frame is %d bytes; the test wants > 64 KiB", len(frame))
	}

	resp, err := http.Post(ts.URL+"/v1/eval/bin", BinContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	vals, err := ParseValuesFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("%d values for %d points", len(vals), n)
	}
	for i, x := range pts {
		want, err := ref.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vals[i]-want) > 1e-12 {
			t.Fatalf("point %d: got %g want %g", i, vals[i], want)
		}
	}
}
