package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/workload"
)

// writeGrid compresses the parabola workload into a grid file and
// returns its path plus an in-memory reference grid.
func writeGrid(t *testing.T, dir string, dim, level int) (string, *compactsg.Grid) {
	t.Helper()
	g, err := compactsg.New(dim, level)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(workload.Parabola.F)
	path := filepath.Join(dir, fmt.Sprintf("d%dl%d.sg", dim, level))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestGridSetLRU(t *testing.T) {
	dir := t.TempDir()
	paths := make(map[string]string)
	for _, name := range []string{"a", "b", "c"} {
		p, _ := writeGrid(t, filepath.Join(dir), 2, 3+len(name)) // distinct files
		np := filepath.Join(dir, name+".sg")
		if err := os.Rename(p, np); err != nil {
			t.Fatal(err)
		}
		paths[name] = np
	}

	var evicted []string
	s := NewGridSet(2)
	s.OnEvict = func(name string, _ *compactsg.Grid) { evicted = append(evicted, name) }
	for name, p := range paths {
		if err := s.Add(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add("a", paths["a"]); err == nil {
		t.Fatal("duplicate Add succeeded")
	}

	ga, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	if n := s.ResidentCount(); n != 2 {
		t.Fatalf("resident = %d, want 2", n)
	}
	// Touch a so b is the LRU victim when c loads.
	if g2, err := s.Get("a"); err != nil || g2 != ga {
		t.Fatalf("re-Get(a) = %v, %v; want cached instance", g2, err)
	}
	if _, err := s.Get("c"); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	// b's metadata survives eviction; b reloads on demand.
	for _, gi := range s.Info() {
		if gi.Name == "b" {
			if gi.Resident {
				t.Error("b still marked resident")
			}
			if gi.Points == 0 {
				t.Error("b metadata lost on eviction")
			}
		}
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown grid") {
		t.Fatalf("Get(nope) err = %v, want unknown grid", err)
	}
}

func TestGridSetRejectsNodalFile(t *testing.T) {
	dir := t.TempDir()
	g, err := compactsg.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Grid left in the nodal state (never compressed).
	path := filepath.Join(dir, "nodal.sg")
	f, _ := os.Create(path)
	if err := g.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s := NewGridSet(1)
	if err := s.Add("n", path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("n"); err == nil || !strings.Contains(err.Error(), "nodal") {
		t.Fatalf("Get on nodal file err = %v, want nodal-state error", err)
	}
}

func TestBatcherCoalesces(t *testing.T) {
	dir := t.TempDir()
	path, ref := writeGrid(t, dir, 3, 5)
	f, _ := os.Open(path)
	g, err := compactsg.LoadAny(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var flushes []int
	b := newBatcher(g, 8, 5*time.Millisecond, func(n int) {
		mu.Lock()
		flushes = append(flushes, n)
		mu.Unlock()
	})
	defer b.close()

	xs := workload.Points(7, 24, 3)
	var wg sync.WaitGroup
	got := make([]float64, len(xs))
	for k := range xs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err := b.submit(context.Background(), xs[k])
			if err != nil {
				t.Error(err)
				return
			}
			got[k] = v
		}(k)
	}
	wg.Wait()

	for k, x := range xs {
		want, _ := ref.Evaluate(x)
		if math.Abs(got[k]-want) > 1e-12 {
			t.Fatalf("point %d: batched = %g, direct = %g", k, got[k], want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	multi := false
	for _, n := range flushes {
		total += n
		if n > 1 {
			multi = true
		}
	}
	if total != len(xs) {
		t.Fatalf("flushed %d points, want %d (flushes %v)", total, len(xs), flushes)
	}
	if !multi {
		t.Errorf("no flush coalesced more than one request: %v", flushes)
	}
}

func TestBatcherSubmitAfterClose(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGrid(t, dir, 2, 3)
	f, _ := os.Open(path)
	g, _ := compactsg.LoadAny(f)
	f.Close()
	b := newBatcher(g, 4, time.Millisecond, nil)
	b.close()
	b.close() // idempotent
	if _, err := b.submit(context.Background(), []float64{0.5, 0.5}); err != ErrClosed {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
}

func TestBatcherSubmitContextTimeout(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGrid(t, dir, 2, 3)
	f, _ := os.Open(path)
	g, _ := compactsg.LoadAny(f)
	f.Close()
	// Batch never fills and waits a long time, so the context gives up first.
	b := newBatcher(g, 1024, time.Hour, nil)
	defer b.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.submit(ctx, []float64{0.5, 0.5}); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// newTestServer builds a Server over freshly written grid files.
func newTestServer(t *testing.T, cfg Config, dims ...int) (*Server, map[string]*compactsg.Grid) {
	t.Helper()
	dir := t.TempDir()
	refs := make(map[string]*compactsg.Grid)
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	for _, d := range dims {
		name := fmt.Sprintf("g%d", d)
		path, ref := writeGrid(t, dir, d, 4)
		if err := s.AddGrid(name, path); err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	return s, refs
}

func postJSON(t *testing.T, h http.Handler, url string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", url, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServerEvalAndBatch(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			s, refs := newTestServer(t, Config{Coalesce: coalesce, BatchWait: time.Millisecond}, 3)
			h := s.Handler()
			ref := refs["g3"]

			x := []float64{0.25, 0.5, 0.75}
			rec := postJSON(t, h, "/v1/eval", evalRequest{Grid: "g3", Point: x})
			if rec.Code != 200 {
				t.Fatalf("eval status = %d, body %s", rec.Code, rec.Body)
			}
			var er evalResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Evaluate(x)
			if math.Abs(er.Value-want) > 1e-12 {
				t.Fatalf("value = %g, want %g", er.Value, want)
			}

			// Grid name may be omitted with a single registered grid.
			rec = postJSON(t, h, "/v1/eval", evalRequest{Point: x})
			if rec.Code != 200 {
				t.Fatalf("eval without grid name status = %d, body %s", rec.Code, rec.Body)
			}

			xs := workload.Points(3, 10, 3)
			rec = postJSON(t, h, "/v1/eval/batch", batchRequest{Grid: "g3", Points: xs})
			if rec.Code != 200 {
				t.Fatalf("batch status = %d, body %s", rec.Code, rec.Body)
			}
			var br batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatal(err)
			}
			wantVals, _ := ref.EvaluateBatch(xs, nil)
			for k := range xs {
				if math.Abs(br.Values[k]-wantVals[k]) > 1e-12 {
					t.Fatalf("batch[%d] = %g, want %g", k, br.Values[k], wantVals[k])
				}
			}

			// Empty batch is a valid no-op.
			rec = postJSON(t, h, "/v1/eval/batch", batchRequest{Grid: "g3", Points: [][]float64{}})
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"values":[]`) {
				t.Fatalf("empty batch: status %d body %s", rec.Code, rec.Body)
			}
		})
	}
}

func TestServerErrorPaths(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Coalesce:       true,
		BatchWait:      time.Millisecond,
		MaxBodyBytes:   256,
		MaxBatchPoints: 4,
	}, 2, 3)
	h := s.Handler()

	cases := []struct {
		name   string
		url    string
		body   string
		status int
		substr string
	}{
		{"bad JSON", "/v1/eval", `{"grid": nope}`, 400, "invalid JSON"},
		{"unknown field", "/v1/eval", `{"grid":"g2","pt":[0.5,0.5]}`, 400, "invalid JSON"},
		{"unknown grid", "/v1/eval", `{"grid":"missing","point":[0.5,0.5]}`, 404, "unknown grid"},
		{"ambiguous default grid", "/v1/eval", `{"point":[0.5,0.5]}`, 400, "must name a grid"},
		{"dim mismatch", "/v1/eval", `{"grid":"g2","point":[0.5,0.5,0.5]}`, 400, "dimensions"},
		{"out of domain", "/v1/eval", `{"grid":"g2","point":[0.5,1.5]}`, 400, "outside the domain"},
		{"negative coordinate", "/v1/eval", `{"grid":"g2","point":[-0.1,0.5]}`, 400, "outside the domain"},
		{"oversized body", "/v1/eval", `{"grid":"g2","point":[` + strings.Repeat("0.1,", 200) + `0.1]}`, 413, "exceeds"},
		{"oversized batch", "/v1/eval/batch", `{"grid":"g2","points":[[0.1,0.1],[0.2,0.2],[0.3,0.3],[0.4,0.4],[0.5,0.5]]}`, 413, "cap"},
		{"batch bad point", "/v1/eval/batch", `{"grid":"g2","points":[[0.1,0.1],[2,0.2]]}`, 400, "point 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", tc.url, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body not JSON: %v (%s)", err, rec.Body)
			}
			if !strings.Contains(er.Error, tc.substr) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.substr)
			}
		})
	}

	// Method and route checks.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/eval", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval status = %d, want 405", rec.Code)
	}
}

func TestServerGridsHealthzMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 2)
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/grids", nil))
	var gr gridsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Grids) != 1 || gr.Grids[0].Name != "g2" || !gr.Grids[0].Resident || gr.Grids[0].Dim != 2 {
		t.Fatalf("grids = %+v", gr.Grids)
	}

	// Generate traffic (one ok, one error), then check the exposition.
	postJSON(t, h, "/v1/eval", evalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
	postJSON(t, h, "/v1/eval", evalRequest{Grid: "none", Point: []float64{0.5, 0.5}})
	postJSON(t, h, "/v1/eval/batch", batchRequest{Grid: "g2", Points: workload.Points(1, 5, 2)})

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		`sgserve_requests_total{handler="eval",protocol="json"} 2`,
		`sgserve_errors_total{handler="eval"} 1`,
		`sgserve_request_seconds_bucket{handler="eval",le="+Inf"} 2`,
		"sgserve_batch_size_bucket",
		"sgserve_points_evaluated_total 6",
		"sgserve_grids_resident 1",
		"sgserve_grid_loads_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestServerShutdownDrainsInflight submits requests that are still
// waiting in an open micro-batch, closes the server, and expects every
// caller to receive its value (not an error): Close flushes pending
// batches instead of dropping them.
func TestServerShutdownDrainsInflight(t *testing.T) {
	// Huge batch + long wait: requests park in the coalescer until close.
	s, refs := newTestServer(t, Config{Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour}, 3)
	h := s.Handler()
	ref := refs["g3"]

	xs := workload.Points(11, 8, 3)
	var wg sync.WaitGroup
	type result struct {
		code int
		body string
	}
	results := make([]result, len(xs))
	for k := range xs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rec := postJSON(t, h, "/v1/eval", evalRequest{Grid: "g3", Point: xs[k]})
			results[k] = result{rec.Code, rec.Body.String()}
		}(k)
	}
	// Wait until the batcher has accepted every call. The request
	// counter is no barrier: it counts a request at handler entry,
	// before submit enqueues it, and Close answers a call the batcher
	// has not accepted yet with a 503.
	accepted := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if gb := s.batchers["g3"]; gb != nil {
			return gb.b.enqueued.Load()
		}
		return 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for accepted() < int64(len(xs)) {
		if time.Now().After(deadline) {
			t.Fatalf("batcher accepted %d of %d calls", accepted(), len(xs))
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for k, r := range results {
		if r.code != 200 {
			t.Fatalf("request %d: status %d body %s (in-flight request dropped on shutdown)", k, r.code, r.body)
		}
		var er evalResponse
		if err := json.Unmarshal([]byte(r.body), &er); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Evaluate(xs[k])
		if math.Abs(er.Value-want) > 1e-12 {
			t.Fatalf("request %d: value %g, want %g", k, er.Value, want)
		}
	}

	// After Close, new eval requests are refused with 503.
	rec := postJSON(t, h, "/v1/eval", evalRequest{Grid: "g3", Point: xs[0]})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status = %d, want 503", rec.Code)
	}
}

// TestServerEvictionKeepsServing exercises the LRU + batcher
// interplay: more grids than resident slots, interleaved traffic, all
// responses correct.
func TestServerEvictionKeepsServing(t *testing.T) {
	s, refs := newTestServer(t, Config{
		Coalesce:    true,
		BatchWait:   time.Millisecond,
		MaxResident: 1,
	}, 2, 3, 4)
	h := s.Handler()

	for round := 0; round < 3; round++ {
		for name, ref := range refs {
			x := workload.Points(int64(round+1), 1, ref.Dim())[0]
			rec := postJSON(t, h, "/v1/eval", evalRequest{Grid: name, Point: x})
			if rec.Code != 200 {
				t.Fatalf("%s round %d: status %d body %s", name, round, rec.Code, rec.Body)
			}
			var er evalResponse
			json.Unmarshal(rec.Body.Bytes(), &er)
			want, _ := ref.Evaluate(x)
			if math.Abs(er.Value-want) > 1e-12 {
				t.Fatalf("%s round %d: %g want %g", name, round, er.Value, want)
			}
		}
	}
	if n := s.Grids().ResidentCount(); n != 1 {
		t.Fatalf("resident = %d, want 1", n)
	}
	if s.met.evictions.Value() == 0 {
		t.Error("no evictions recorded despite MaxResident=1 and 3 grids")
	}
}
