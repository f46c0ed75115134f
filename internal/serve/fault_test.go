package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/core"
)

// Fault injection for the cold-load path: every way a grid file can be
// bad must surface as a clean typed error with nothing cached, nothing
// mapped and the failure counted — and the registry must recover as
// soon as the file is healthy again.
//
// None of these tests may run in parallel: they assert on the global
// core.ActiveMappings counter.

// restampHeaderCRC recomputes the v2 header checksum after a deliberate
// header mutation, so corruption deeper in the pipeline is reached.
func restampHeaderCRC(raw []byte) {
	table := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(raw[44:], crc32.Checksum(raw[:44], table))
}

func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFaultInjection(t *testing.T) {
	errHook := errors.New("injected hook failure")
	cases := []struct {
		name    string
		mutate  func([]byte) []byte // nil: corrupt nothing, fail via LoadHook
		check   func(t *testing.T, err error)
		hookErr error
	}{
		{
			name:   "truncated file",
			mutate: func(raw []byte) []byte { return raw[:len(raw)-100] },
			check: func(t *testing.T, err error) {
				var ce *core.CorruptError
				if !errors.As(err, &ce) {
					t.Errorf("truncation error is not a CorruptError: %v", err)
				}
			},
		},
		{
			name: "flipped payload bit",
			mutate: func(raw []byte) []byte {
				raw[core.SnapshotAlign+17] ^= 0x04
				return raw
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrChecksum) {
					t.Errorf("payload corruption not reported as checksum mismatch: %v", err)
				}
			},
		},
		{
			name: "flipped payload checksum",
			mutate: func(raw []byte) []byte {
				raw[40] ^= 0xff // payload CRC field
				restampHeaderCRC(raw)
				return raw
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrChecksum) {
					t.Errorf("checksum corruption not reported as checksum mismatch: %v", err)
				}
			},
		},
		{
			name: "flipped header byte",
			mutate: func(raw []byte) []byte {
				raw[8] ^= 0x01 // dim, header CRC left stale
				return raw
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrChecksum) {
					t.Errorf("header corruption not reported as checksum mismatch: %v", err)
				}
			},
		},
		{
			name:    "load hook error",
			hookErr: errHook,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, errHook) {
					t.Errorf("hook error not propagated: %v", err)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := core.ActiveMappings()
			dir := t.TempDir()
			path, want := writeGrid(t, dir, 2, 4)
			healthy, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.mutate != nil {
				corruptFile(t, path, c.mutate)
			}

			var fails atomic.Int64
			s := NewGridSet(2)
			s.OnLoadFail = func(string, error) { fails.Add(1) }
			if c.hookErr != nil {
				s.LoadHook = func(string) error { return c.hookErr }
			}
			if err := s.Add("g", path); err != nil {
				t.Fatal(err)
			}

			_, err = s.Get("g")
			if err == nil {
				t.Fatal("Get succeeded on a faulty load")
			}
			c.check(t, err)
			if n := s.ResidentCount(); n != 0 {
				t.Errorf("failed load left %d grids resident", n)
			}
			if got := core.ActiveMappings(); got != baseline {
				t.Errorf("failed load leaked a mapping: ActiveMappings %d, baseline %d", got, baseline)
			}
			if n := fails.Load(); n != 1 {
				t.Errorf("OnLoadFail fired %d times, want 1", n)
			}

			// Recovery: restore the healthy bytes (and drop the failing
			// hook) and the very next Get must succeed.
			s.LoadHook = nil
			if err := os.WriteFile(path, healthy, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := s.Get("g")
			if err != nil {
				t.Fatalf("Get after repair: %v", err)
			}
			if g.Dim() != want.Dim() || g.Level() != want.Level() {
				t.Errorf("repaired grid has wrong shape d=%d l=%d", g.Dim(), g.Level())
			}
			if n := fails.Load(); n != 1 {
				t.Errorf("successful load bumped the failure count to %d", n)
			}
			s.Purge()
			if got := core.ActiveMappings(); got != baseline {
				t.Errorf("purged registry still holds mappings: %d, baseline %d", got, baseline)
			}
		})
	}
}

// TestEvictionReleasesMappingAfterLastLease: an evicted mmap-loaded
// grid must stay readable for its lease holders and be unmapped only
// when the last lease goes away.
func TestEvictionReleasesMappingAfterLastLease(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap load path is linux-only")
	}
	baseline := core.ActiveMappings()
	s := newTestSet(t, 1, 2)

	lease, err := s.Acquire(context.Background(), "q0")
	if err != nil {
		t.Fatal(err)
	}
	if got := core.ActiveMappings(); got != baseline+1 {
		t.Fatalf("after first load: ActiveMappings %d, want %d", got, baseline+1)
	}

	// Loading q1 evicts q0 (maxResident = 1) — but q0's lease is live,
	// so its mapping must survive the eviction.
	if _, err := s.Get("q1"); err != nil {
		t.Fatal(err)
	}
	if got := core.ActiveMappings(); got != baseline+2 {
		t.Fatalf("after eviction with live lease: ActiveMappings %d, want %d", got, baseline+2)
	}
	if _, err := lease.Grid().Evaluate([]float64{0.3, 0.7}); err != nil {
		t.Fatalf("evicted leased grid unreadable: %v", err)
	}

	lease.Release()
	if got := core.ActiveMappings(); got != baseline+1 {
		t.Fatalf("after last lease release: ActiveMappings %d, want %d (q0 unmapped)", got, baseline+1)
	}
	lease.Release() // double release is a no-op
	if got := core.ActiveMappings(); got != baseline+1 {
		t.Fatalf("double release changed mappings: %d", core.ActiveMappings())
	}

	s.Purge()
	if got := core.ActiveMappings(); got != baseline {
		t.Fatalf("after Purge: ActiveMappings %d, want %d", got, baseline)
	}
}

// TestServerFaultEndToEnd drives a corrupt grid file through the full
// HTTP stack: the request must fail cleanly, the failure metric must
// show on /metrics, and after Close no goroutine or mapping survives.
func TestServerFaultEndToEnd(t *testing.T) {
	baseline := core.ActiveMappings()
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	goodPath, _ := writeGrid(t, dir, 2, 3)
	badPath, _ := writeGrid(t, dir, 2, 4)
	corruptFile(t, badPath, func(raw []byte) []byte {
		raw[core.SnapshotAlign+3] ^= 0x40
		return raw
	})

	srv := New(Config{Coalesce: true, MaxResident: 2})
	if err := srv.AddGrid("good", goodPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGrid("bad", badPath); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if status, body := post(`{"grid":"bad","point":[0.5,0.5]}`); status/100 == 2 {
		t.Fatalf("eval on corrupt grid returned %d: %s", status, body)
	}
	if status, body := post(`{"grid":"good","point":[0.5,0.5]}`); status != http.StatusOK {
		t.Fatalf("eval on good grid returned %d: %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sgserve_grid_load_failures_total 1",
		`sgserve_grid_load_mode_total{mode="mmap"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Tear down the HTTP plumbing before the leak check so only the
	// Server's own goroutines could still be running.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := core.ActiveMappings(); got != baseline {
		t.Errorf("closed server still holds mappings: %d, baseline %d", got, baseline)
	}
	assertNoGoroutineLeak(t, goroutines)
}

// TestBatchTimeoutEvictionHoldsMapping is the regression test for the
// batch-timeout use-after-release: a batch request times out while its
// evaluation still holds the grid, the grid is LRU-evicted mid-flight,
// and the snapshot mapping must survive until the kernel has returned.
//
// A handler that released its lease when the request timed out, while
// the evaluation still read the grid, would munmap the evicted payload
// under the running read — in production a SIGSEGV, here observable
// deterministically as ActiveMappings dropping while the evaluation is
// still parked in the eval stage past its deadline. The 503 arrives
// only after the gate releases, and by then the lease is gone.
// Exercises both batch endpoints: /v1/eval/batch and /v1/eval/bin.
func TestBatchTimeoutEvictionHoldsMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap load path is linux-only")
	}
	cases := []struct {
		name string
		fire func(t *testing.T, h http.Handler) *httptest.ResponseRecorder
	}{
		{
			name: "json batch",
			fire: func(t *testing.T, h http.Handler) *httptest.ResponseRecorder {
				req := httptest.NewRequest("POST", "/v1/eval/batch",
					strings.NewReader(`{"grid":"a","points":[[0.25,0.75]]}`))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			},
		},
		{
			name: "binary frame",
			fire: func(t *testing.T, h http.Handler) *httptest.ResponseRecorder {
				frame := AppendEvalFrame(nil, "a", [][]float64{{0.25, 0.75}})
				req := httptest.NewRequest("POST", "/v1/eval/bin",
					strings.NewReader(string(frame)))
				req.Header.Set("Content-Type", BinContentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := core.ActiveMappings()
			goroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			pathA, _ := writeGrid(t, dir, 2, 4)
			pathB, _ := writeGrid(t, dir, 2, 3)

			srv := New(Config{MaxResident: 1, Coalesce: false, RequestTimeout: 100 * time.Millisecond})
			if err := srv.AddGrid("a", pathA); err != nil {
				t.Fatal(err)
			}
			if err := srv.AddGrid("b", pathB); err != nil {
				t.Fatal(err)
			}
			// The gate parks grid a's evaluation, lease held, until its
			// deadline has passed and the test releases it.
			entered := make(chan struct{})
			expired := make(chan struct{})
			release := make(chan struct{})
			srv.evalGate = func(ctx context.Context, grid string) {
				if grid == "a" {
					close(entered)
					<-ctx.Done()
					close(expired)
					<-release
				}
			}
			h := srv.Handler()

			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- c.fire(t, h) }()
			<-entered
			if got := core.ActiveMappings(); got != baseline+1 {
				t.Fatalf("with batch in flight: ActiveMappings %d, want %d", got, baseline+1)
			}

			// Evict grid a mid-flight (MaxResident = 1): its mapping must
			// survive on the parked evaluation's lease.
			rec := postJSON(t, h, "/v1/eval", map[string]any{"grid": "b", "point": []float64{0.5, 0.5}})
			if rec.Code != http.StatusOK {
				t.Fatalf("eval b: status %d body %s", rec.Code, rec.Body)
			}
			if got := core.ActiveMappings(); got != baseline+2 {
				t.Fatalf("after eviction with eval in flight: ActiveMappings %d, want %d", got, baseline+2)
			}

			// THE regression assertion: the request's deadline has passed,
			// but the evaluation still holds the evicted grid's lease, so
			// its mapping is alive and no response has been written.
			<-expired
			if got := core.ActiveMappings(); got != baseline+2 {
				t.Fatalf("timeout released the mapping under the running eval: ActiveMappings %d, want %d",
					got, baseline+2)
			}
			select {
			case brec := <-done:
				t.Fatalf("answered %d while the evaluation still ran", brec.Code)
			default:
			}

			// Released, the kernel stops before its first block: 503, and
			// the lease is gone by the time the response is written.
			close(release)
			brec := <-done
			if brec.Code != http.StatusServiceUnavailable {
				t.Fatalf("timed-out batch: status %d body %s, want 503", brec.Code, brec.Body)
			}
			if got := core.ActiveMappings(); got != baseline+1 {
				t.Fatalf("after the 503: ActiveMappings %d, want %d (grid a unmapped)", got, baseline+1)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if got := core.ActiveMappings(); got != baseline {
				t.Fatalf("after Close: ActiveMappings %d, want %d", got, baseline)
			}
			assertNoGoroutineLeak(t, goroutines)
		})
	}
}

// TestPurgeIsReloadSafe: a purged grid is reloaded on the next access,
// so Purge mid-traffic only costs a reload, never an error.
func TestPurgeIsReloadSafe(t *testing.T) {
	s := newTestSet(t, 2, 1)
	var loads atomic.Int64
	s.OnLoad = func(string, compactsg.LoadMode, time.Duration) { loads.Add(1) }
	if _, err := s.Get("q0"); err != nil {
		t.Fatal(err)
	}
	s.Purge()
	if n := s.ResidentCount(); n != 0 {
		t.Fatalf("%d grids resident after Purge", n)
	}
	if _, err := s.Get("q0"); err != nil {
		t.Fatalf("Get after Purge: %v", err)
	}
	if n := loads.Load(); n != 2 {
		t.Errorf("loads = %d, want 2 (initial + post-purge reload)", n)
	}
}
