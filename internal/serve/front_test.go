package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"
	"testing/iotest"
)

// TestReadBodyCap: ReadBody accepts a body of exactly the limit and
// refuses one byte more with a 413, however the reader chunks it,
// without reading further; a failed read is a 400; and a buffer with
// room is filled in place.
func TestReadBodyCap(t *testing.T) {
	const limit = 10000
	for _, n := range []int{0, 1, 4096, limit - 1, limit, limit + 1, 3 * limit} {
		body := bytes.Repeat([]byte{'x'}, n)
		for _, r := range []io.Reader{
			bytes.NewReader(body),
			iotest.OneByteReader(bytes.NewReader(body)),
			iotest.DataErrReader(bytes.NewReader(body)),
		} {
			got, err := ReadBody(nil, r, limit)
			if n > limit {
				if statusFor(err) != http.StatusRequestEntityTooLarge || len(got) != limit+1 {
					t.Errorf("%d-byte body: read %d bytes, err %v; want 413 after limit+1 bytes", n, len(got), err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, body) {
				t.Errorf("%d-byte body: read %d bytes, err %v", n, len(got), err)
			}
		}
	}

	if _, err := ReadBody(nil, iotest.ErrReader(errors.New("connection reset")), limit); statusFor(err) != http.StatusBadRequest {
		t.Errorf("failed read: err %v, want a 400", err)
	}

	buf := make([]byte, 3, 8192)
	got, err := ReadBody(buf, bytes.NewReader(make([]byte, 5000)), limit)
	if err != nil || len(got) != 5000 || &got[0] != &buf[0] {
		t.Errorf("ReadBody did not refill the buffer it was given in place (len %d, err %v)", len(got), err)
	}
}
