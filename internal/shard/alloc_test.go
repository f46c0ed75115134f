package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"compactsg/internal/serve"
)

// loopConn is a net.Conn whose reads replay a canned HTTP response
// stream forever and whose writes vanish. It lets AllocsPerRun measure
// the proxy's forwarding path alone: a real TCP upstream would put the
// server's handler allocations in the same process-wide malloc count.
type loopConn struct {
	canned []byte
	off    int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.canned[c.off:])
	c.off = (c.off + n) % len(c.canned)
	return n, nil
}
func (c *loopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *loopConn) Close() error                     { return nil }
func (c *loopConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *loopConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

// cannedValuesResponse is one complete upstream reply to a 1-point
// eval: a values frame (u32 n=1, u32 reserved, one f64) behind exact
// framing headers. Each roundTrip consumes exactly one reply through
// the connection's persistent bufio.Reader, so replaying the stream
// keeps every iteration aligned.
func cannedValuesResponse() []byte {
	frame := make([]byte, 16)
	binary.LittleEndian.PutUint32(frame[0:], 1)
	binary.LittleEndian.PutUint64(frame[8:], math.Float64bits(0.75))
	var b bytes.Buffer
	b.WriteString("HTTP/1.1 200 OK\r\n")
	b.WriteString("Content-Type: " + serve.BinContentType + "\r\n")
	b.WriteString("Content-Length: 16\r\n\r\n")
	b.Write(frame)
	return b.Bytes()
}

// TestForwardBinZeroAlloc pins the acceptance criterion that the proxy
// hot path adds zero steady-state heap allocations per forwarded
// binary frame: body read, grid-name parse, ring lookup, upstream
// round trip, and response access all run out of pooled buffers.
func TestForwardBinZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool")
	}
	canned := cannedValuesResponse()
	p, err := New(Config{
		Dial: func(string) (net.Conn, error) {
			return &loopConn{canned: canned}, nil
		},
	}, Topology{Epoch: 1, Shards: []Shard{{ID: "s0", Addr: "fake:0"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	frame := serve.AppendEvalFrame(nil, "alloc-grid", [][]float64{{0.25, 0.5}})
	body := bytes.NewReader(frame)
	pb := new(proxyBuf)
	iter := func() {
		body.Reset(frame)
		var err error
		if pb.raw, err = serve.ReadBody(pb.raw, body, 1<<20); err != nil {
			t.Fatal(err)
		}
		name, err := serve.FrameGridName(pb.raw)
		if err != nil {
			t.Fatal(err)
		}
		rs := p.state.Load()
		status, err := p.forward(rs, pb, pb.raw, name, "")
		if err != nil || status != 200 {
			t.Fatalf("forward: status=%d err=%v", status, err)
		}
		// The binary path relays pb.rt.resp verbatim (no decode), so the
		// check stays byte-level too — ParseValuesFrame allocates its
		// output slice and belongs to the JSON termination path.
		if len(pb.rt.resp) != 16 || !pb.rt.respBin ||
			binary.LittleEndian.Uint64(pb.rt.resp[8:]) != math.Float64bits(0.75) {
			t.Fatalf("response: %d bytes, bin=%v", len(pb.rt.resp), pb.rt.respBin)
		}
	}
	// Warm the pooled buffers and the persistent upstream connection.
	for i := 0; i < 10; i++ {
		iter()
	}
	if allocs := testing.AllocsPerRun(200, iter); allocs != 0 {
		t.Fatalf("forwarding a binary frame allocates %.1f times per request; the hot path must be allocation-free", allocs)
	}
}
