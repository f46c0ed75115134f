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
	"sync/atomic"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/workload"
)

// writeGrid compresses the parabola workload into a grid file and
// returns its path plus an in-memory reference grid.
func writeGrid(t testing.TB, dir string, dim, level int) (string, *compactsg.Grid) {
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
	b := newBatcher(g.EvaluateBatch, 8, 5*time.Millisecond, func(n int) {
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
	b := newBatcher(g.EvaluateBatch, 4, time.Millisecond, nil)
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
	b := newBatcher(g.EvaluateBatch, 1024, time.Hour, nil)
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

// evalOne evaluates x through one of the three eval endpoints
// ("/v1/eval", "/v1/eval/batch" or "/v1/eval/bin") and returns the
// response with the decoded value (0 unless the status is 200).
func evalOne(t *testing.T, h http.Handler, endpoint, grid string, x []float64) (*httptest.ResponseRecorder, float64) {
	t.Helper()
	var rec *httptest.ResponseRecorder
	switch endpoint {
	case "/v1/eval":
		rec = postJSON(t, h, endpoint, EvalRequest{Grid: grid, Point: x})
	case "/v1/eval/batch":
		rec = postJSON(t, h, endpoint, BatchRequest{Grid: grid, Points: [][]float64{x}})
	default:
		rec = postBin(t, h, AppendEvalFrame(nil, grid, [][]float64{x}))
	}
	if rec.Code != http.StatusOK {
		return rec, 0
	}
	switch endpoint {
	case "/v1/eval":
		var er evalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: %v", endpoint, err)
		}
		return rec, er.Value
	case "/v1/eval/batch":
		var br batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Values) != 1 {
			t.Errorf("%s: %d values, err %v", endpoint, len(br.Values), err)
			return rec, 0
		}
		return rec, br.Values[0]
	}
	vals, err := ParseValuesFrame(rec.Body.Bytes())
	if err != nil || len(vals) != 1 {
		t.Errorf("%s: %d values, err %v", endpoint, len(vals), err)
		return rec, 0
	}
	return rec, vals[0]
}

var evalEndpoints = []string{"/v1/eval", "/v1/eval/batch", "/v1/eval/bin"}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerEvalAndBatch: every eval endpoint answers with the
// reference grid's values, bit for bit — a single point is a one-point
// batch (or rides a micro-batch), which the batch kernel computes
// exactly as Evaluate does. It runs once per setting of
// Config.Coalesce; both settings must give the same answers.
func TestServerEvalAndBatch(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			s, refs := newTestServer(t, Config{Coalesce: coalesce, BatchWait: time.Millisecond}, 3)
			h := s.Handler()
			ref := refs["g3"]

			x := []float64{0.25, 0.5, 0.75}
			want, _ := ref.Evaluate(x)
			// Batch and binary requests never coalesce, even of one point.
			for _, ep := range []string{"/v1/eval/batch", "/v1/eval/bin"} {
				if rec, _ := evalOne(t, h, ep, "g3", x); rec.Code != 200 || s.met.batchersNow.Value() != 0 {
					t.Fatalf("%s: status %d, %v coalescers; want 200 and none", ep, rec.Code, s.met.batchersNow.Value())
				}
			}
			for _, ep := range evalEndpoints {
				rec, got := evalOne(t, h, ep, "g3", x)
				if rec.Code != 200 {
					t.Fatalf("%s status = %d, body %s", ep, rec.Code, rec.Body)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s value = %v, want %v", ep, got, want)
				}
			}

			// Grid name may be omitted with a single registered grid.
			rec := postJSON(t, h, "/v1/eval", EvalRequest{Point: x})
			if rec.Code != 200 {
				t.Fatalf("eval without grid name status = %d, body %s", rec.Code, rec.Body)
			}

			xs := workload.Points(3, 10, 3)
			rec = postJSON(t, h, "/v1/eval/batch", BatchRequest{Grid: "g3", Points: xs})
			if rec.Code != 200 {
				t.Fatalf("batch status = %d, body %s", rec.Code, rec.Body)
			}
			var br batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatal(err)
			}
			wantVals, _ := ref.EvaluateBatch(xs, nil)
			for k := range xs {
				if math.Float64bits(br.Values[k]) != math.Float64bits(wantVals[k]) {
					t.Fatalf("batch[%d] = %v, want %v", k, br.Values[k], wantVals[k])
				}
			}

			// Empty batch is a valid no-op.
			rec = postJSON(t, h, "/v1/eval/batch", BatchRequest{Grid: "g3", Points: [][]float64{}})
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
	postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
	postJSON(t, h, "/v1/eval", EvalRequest{Grid: "none", Point: []float64{0.5, 0.5}})
	postJSON(t, h, "/v1/eval/batch", BatchRequest{Grid: "g2", Points: workload.Points(1, 5, 2)})

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

// TestServerShutdownDrainsInflight: requests already in the eval stage
// when Close begins complete with their values, and Close waits for
// them before it purges the registry. Eight requests across the three
// eval endpoints park in the eval stage (evalGate) while Close starts.
func TestServerShutdownDrainsInflight(t *testing.T) {
	baseline := core.ActiveMappings()
	s, refs := newTestServer(t, Config{}, 3)
	h := s.Handler()
	ref := refs["g3"]

	xs := workload.Points(11, 8, 3)
	// The gate parks the first len(xs) evaluations and lets any later
	// one through, so a request wrongly admitted after Close answers
	// instead of hanging the test. entered is sized to the parked ones.
	var entries atomic.Int64
	entered := make(chan struct{}, len(xs))
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(open) // before newTestServer's Close, should the test fail early
	s.evalGate = func(context.Context, string) {
		if entries.Add(1) <= int64(len(xs)) {
			entered <- struct{}{}
			<-release
		}
	}
	var wg sync.WaitGroup
	type result struct {
		code  int
		body  string
		value float64
	}
	results := make([]result, len(xs))
	for k := range xs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rec, v := evalOne(t, h, evalEndpoints[k%len(evalEndpoints)], "g3", xs[k])
			results[k] = result{rec.Code, rec.Body.String(), v}
		}(k)
	}
	for range xs {
		<-entered
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	// Close has begun: new requests are refused, parked ones still run.
	for _, ep := range evalEndpoints {
		if rec, _ := evalOne(t, h, ep, "g3", xs[0]); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during shutdown: status %d, want 503", ep, rec.Code)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while requests were parked in the eval stage")
	default:
	}
	open()
	wg.Wait()
	<-closed

	for k, r := range results {
		if r.code != 200 {
			t.Fatalf("request %d: status %d body %s (in-flight request dropped on shutdown)", k, r.code, r.body)
		}
		want, _ := ref.Evaluate(xs[k])
		if math.Float64bits(r.value) != math.Float64bits(want) {
			t.Fatalf("request %d: value %v, want %v", k, r.value, want)
		}
	}
	for _, ep := range evalEndpoints {
		if rec, _ := evalOne(t, h, ep, "g3", xs[0]); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s after shutdown: status %d, want 503", ep, rec.Code)
		}
	}
	if got := core.ActiveMappings(); got != baseline {
		t.Fatalf("after Close: ActiveMappings %d, want %d", got, baseline)
	}
}

// TestServerShutdownDrainsCoalesced submits requests that are still
// waiting in an open micro-batch, closes the server, and expects every
// caller to receive its value (not an error): Close flushes pending
// batches instead of dropping them, then unmaps every grid.
func TestServerShutdownDrainsCoalesced(t *testing.T) {
	baseline := core.ActiveMappings()
	// Huge batch + long wait: requests park in the coalescer until close.
	s, refs := newTestServer(t, Config{Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour}, 3)
	h := s.Handler()
	ref := refs["g3"]

	xs := workload.Points(11, 8, 3)
	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, len(xs))
	values := make([]float64, len(xs))
	for k := range xs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], values[k] = evalOne(t, h, "/v1/eval", "g3", xs[k])
		}(k)
	}
	// Wait until the batcher has accepted every call. The request
	// counter is no barrier: it counts a request at handler entry,
	// before submit enqueues it, and Close answers a call the batcher
	// has not accepted yet with a 503.
	waitFor(t, "the batcher to accept every call", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		b := s.batchers["g3"]
		return b != nil && b.enqueued.Load() == int64(len(xs))
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for k, rec := range results {
		if rec.Code != 200 {
			t.Fatalf("request %d: status %d body %s (in-flight request dropped on shutdown)", k, rec.Code, rec.Body)
		}
		want, _ := ref.Evaluate(xs[k])
		if math.Float64bits(values[k]) != math.Float64bits(want) {
			t.Fatalf("request %d: value %v, want %v", k, values[k], want)
		}
	}

	// After Close, new eval requests are refused with 503.
	if rec, _ := evalOne(t, h, "/v1/eval", "g3", xs[0]); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status = %d, want 503", rec.Code)
	}
	if got := core.ActiveMappings(); got != baseline {
		t.Fatalf("after Close: ActiveMappings %d, want %d", got, baseline)
	}
}

// TestServerRefusesAfterClose: after Close every eval endpoint answers
// 503 "shutting down" without reloading the purged grid, so no
// snapshot mapping outlives the server. Coalesced or not.
func TestServerRefusesAfterClose(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			baseline := core.ActiveMappings()
			s, _ := newTestServer(t, Config{Coalesce: coalesce, BatchWait: time.Millisecond}, 2)
			if err := s.Preload(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, ep := range evalEndpoints {
				rec, _ := evalOne(t, s.Handler(), ep, "g2", []float64{0.5, 0.5})
				if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "shutting down") {
					t.Errorf("%s after Close: status %d body %s, want 503 shutting down", ep, rec.Code, rec.Body)
				}
			}
			if n := s.met.batchersNow.Value(); n != 0 {
				t.Errorf("%v coalescers after Close, want none", n)
			}
			if got := core.ActiveMappings(); got != baseline {
				t.Fatalf("after Close: ActiveMappings %d, want %d", got, baseline)
			}
		})
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
			rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: name, Point: x})
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
