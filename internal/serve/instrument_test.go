package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"compactsg/internal/obs"
	"compactsg/internal/serve/metrics"
)

// TestInstrumentRecoversPanic: a panicking handler must be answered
// with a 500 JSON errorResponse, counted in <prefix>_panics_total and
// <prefix>_errors_total, observed in the latency histogram, and its
// stack logged via slog — net/http's own recovery does none of that
// (it aborts the connection and the request vanishes from metrics).
// The front is built directly under both binaries' prefixes; a server
// built on it keeps serving after the panic.
func TestInstrumentRecoversPanic(t *testing.T) {
	boom := func(http.ResponseWriter, *http.Request) error { panic("kernel exploded") }
	for _, prefix := range []string{"sgserve", "sgproxy"} {
		t.Run(prefix, func(t *testing.T) {
			var logBuf bytes.Buffer
			reg := metrics.NewRegistry()
			f := NewFront(prefix, reg, obs.New(16), slog.New(slog.NewJSONHandler(&logBuf, nil)), nil)
			rec := httptest.NewRecorder()
			f.Instrument("boom", "json", boom).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", strings.NewReader("{}")))

			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500", rec.Code)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("panic response is not JSON: %v (%s)", err, rec.Body)
			}
			if er.Error != "internal server error" {
				t.Errorf("error body = %q (panic values must not leak to clients)", er.Error)
			}
			if got := f.panics.Value(); got != 1 {
				t.Errorf("%s_panics_total = %d, want 1", prefix, got)
			}
			if got := f.errors.With("boom").Value(); got != 1 {
				t.Errorf("%s_errors_total = %d, want 1", prefix, got)
			}
			if got := f.latency.With("boom").Count(); got != 1 {
				t.Errorf("latency observations = %d, want 1 (panics must not escape the histogram)", got)
			}
			var out bytes.Buffer
			reg.WritePrometheus(&out)
			for _, want := range []string{prefix + "_panics_total 1", prefix + "_write_errors_total 0",
				prefix + `_errors_total{handler="boom"} 1`, prefix + `_request_seconds_count{handler="boom"} 1`} {
				if !strings.Contains(out.String(), want+"\n") {
					t.Errorf("/metrics missing %q", want)
				}
			}
			logged := logBuf.String()
			for _, want := range []string{"handler panic", "kernel exploded", "instrument_test.go"} {
				if !strings.Contains(logged, want) {
					t.Errorf("panic log missing %q:\n%s", want, logged)
				}
			}
		})
	}

	s := New(Config{ErrorLog: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	defer s.Close()
	h := s.front.InstrumentJSON("boom", func(*http.Request) (any, error) { panic("kernel exploded") })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("server: status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz after panic = %d", rec.Code)
	}
}

// TestDecodeJSONStrict: the body must be exactly one JSON value.
func TestDecodeJSONStrict(t *testing.T) {
	s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 2)
	h := s.Handler()

	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{"valid", `{"grid":"g2","point":[0.5,0.5]}`, 200, `"value"`},
		{"valid with trailing whitespace", `{"grid":"g2","point":[0.5,0.5]}` + " \n\t ", 200, `"value"`},
		{"trailing garbage", `{"grid":"g2","point":[0.5,0.5]}junk`, 400, "after the JSON value"},
		{"second JSON value", `{"grid":"g2","point":[0.5,0.5]}{"grid":"g2"}`, 400, "after the JSON value"},
		{"trailing scalar", `{"grid":"g2","point":[0.5,0.5]} 42`, 400, "after the JSON value"},
		{"empty body", ``, 400, "empty request body"},
		{"whitespace-only body", "  \n ", 400, "empty request body"},
		{"truncated value", `{"grid":"g2","point":[0.5`, 400, "invalid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.substr) {
				t.Fatalf("body %q does not contain %q", rec.Body.String(), tc.substr)
			}
		})
	}
}

// TestInstrumentStatusMapping drives the documented error → status
// mapping through real httptest round-trips: 404 for unknown grids,
// 499 for a client that cancels mid-batch, 503 for a request deadline
// and for a closed server. The first 499 and deadline cases take the
// uncoalesced pipeline and park in the eval stage until their context
// ends, so the kernel stops before its first block; the micro-batch
// cases park in a coalescer batch that would wait an hour.
func TestInstrumentStatusMapping(t *testing.T) {
	t.Run("front", func(t *testing.T) {
		// The wrapper alone, as sgproxy builds it: each returned error
		// answers its status with a JSON error body and counts once.
		f := NewFront("sgproxy", metrics.NewRegistry(), obs.New(16), slog.New(slog.NewJSONHandler(io.Discard, nil)), nil)
		for _, tc := range []struct {
			err    error
			status int
		}{
			{Errorf(http.StatusBadRequest, "bad point"), 400},
			{fmt.Errorf("load: %w", ErrUnknownGrid), 404},
			{Errorf(http.StatusRequestEntityTooLarge, "too big"), 413},
			{fmt.Errorf("eval: %w", context.Canceled), 499},
			{fmt.Errorf("eval: %w", context.DeadlineExceeded), 503},
			{ErrClosed, 503},
			{errors.New("unmapped"), 500},
		} {
			name := fmt.Sprintf("h%d", tc.status)
			h := f.Instrument(name, "json", func(http.ResponseWriter, *http.Request) error { return tc.err })
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", nil))
			var er errorResponse
			if rec.Code != tc.status || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error != tc.err.Error() {
				t.Errorf("%v: answered %d %q, want %d with its JSON error body", tc.err, rec.Code, rec.Body, tc.status)
			}
			if rec.Header().Get("X-Request-Id") == "" {
				t.Errorf("%v: no X-Request-Id stamped", tc.err)
			}
		}
		if got, want := f.errors.With("h503").Value(), uint64(2); got != want {
			t.Errorf("sgproxy_errors_total{handler=h503} = %d, want %d", got, want)
		}
		if got := f.latency.With("h400").Count(); got != 1 {
			t.Errorf("latency observations = %d, want 1", got)
		}
	})

	t.Run("404 unknown grid", func(t *testing.T) {
		s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 2)
		rec := postJSON(t, s.Handler(), "/v1/eval", EvalRequest{Grid: "missing", Point: []float64{0.5, 0.5}})
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404 (body %s)", rec.Code, rec.Body)
		}
	})

	t.Run("499 client cancel mid-batch", func(t *testing.T) {
		s, _ := newTestServer(t, Config{}, 2)
		entered := make(chan struct{})
		s.evalGate = func(ctx context.Context, _ string) {
			close(entered)
			<-ctx.Done()
		}
		h := s.Handler()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			body, _ := json.Marshal(EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
			req := httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			done <- rec
		}()
		// The client walks away while its request is in the eval stage.
		<-entered
		cancel()
		rec := <-done
		if rec.Code != 499 {
			t.Fatalf("status = %d, want 499 (body %s)", rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "context canceled") {
			t.Errorf("body = %s", rec.Body)
		}
	})

	t.Run("503 deadline exceeded", func(t *testing.T) {
		s, _ := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond}, 2)
		s.evalGate = func(ctx context.Context, _ string) { <-ctx.Done() }
		rec := postJSON(t, s.Handler(), "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "deadline") {
			t.Errorf("body = %s", rec.Body)
		}
	})

	t.Run("499 client cancel in open micro-batch", func(t *testing.T) {
		// An open micro-batch that would wait an hour: the request is
		// parked in the coalescer when the client walks away.
		s, _ := newTestServer(t, Config{Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour}, 2)
		h := s.Handler()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			body, _ := json.Marshal(EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
			req := httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			done <- rec
		}()
		waitFor(t, "the call to park in the open batch", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			b := s.batchers["g2"]
			return b != nil && b.enqueued.Load() == 1
		})
		cancel()
		rec := <-done
		if rec.Code != 499 {
			t.Fatalf("status = %d, want 499 (body %s)", rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "context canceled") {
			t.Errorf("body = %s", rec.Body)
		}
	})

	t.Run("503 deadline in open micro-batch", func(t *testing.T) {
		s, _ := newTestServer(t, Config{
			Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour,
			RequestTimeout: 20 * time.Millisecond,
		}, 2)
		rec := postJSON(t, s.Handler(), "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "deadline") {
			t.Errorf("body = %s", rec.Body)
		}
	})

	t.Run("503 server closed", func(t *testing.T) {
		s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 2)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, s.Handler(), "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "shutting down") {
			t.Errorf("body = %s", rec.Body)
		}
	})
}

// TestTracesAndStageMetrics: a served request must leave (a) a trace at
// /debug/traces with the stage split, (b) per-stage histograms in
// /metrics, and (c) an X-Request-Id response header.
func TestTracesAndStageMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 3)
	h := s.Handler()

	rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g3", Point: []float64{0.25, 0.5, 0.75}})
	if rec.Code != 200 {
		t.Fatalf("eval: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	xs := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}}
	if rec = postJSON(t, h, "/v1/eval/batch", BatchRequest{Grid: "g3", Points: xs}); rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces: %d", rec.Code)
	}
	traces, err := obs.ParseTraces(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("/debug/traces is not parseable: %v\n%s", err, rec.Body)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	// Newest first: traces[0] is the batch request.
	batchTr, evalTr := traces[0], traces[1]
	if batchTr.Handler != "batch" || evalTr.Handler != "eval" {
		t.Fatalf("handlers = %s, %s", batchTr.Handler, evalTr.Handler)
	}
	if evalTr.Grid != "g3" || evalTr.Points != 1 || evalTr.Status != 200 || evalTr.Batch < 1 {
		t.Errorf("eval trace = %+v", evalTr)
	}
	if batchTr.Points != 2 || batchTr.Batch != 2 {
		t.Errorf("batch trace = %+v", batchTr)
	}
	// The coalesced eval request must carry the full stage pipeline;
	// the first request also led the cold grid load.
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageValidate, obs.StageLoad,
		obs.StageQueueWait, obs.StageDispatch, obs.StageEval, obs.StageEncode} {
		if _, ok := evalTr.StageS(st); !ok {
			t.Errorf("eval trace missing stage %s", st.Name())
		}
	}
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageValidate, obs.StageEval, obs.StageEncode} {
		if _, ok := batchTr.StageS(st); !ok {
			t.Errorf("batch trace missing stage %s", st.Name())
		}
	}
	// /v1/eval/batch neither coalesces nor hands off: it evaluates on
	// the request goroutine.
	for _, st := range []obs.Stage{obs.StageQueueWait, obs.StageDispatch} {
		if _, ok := batchTr.StageS(st); ok {
			t.Errorf("batch trace has a %s stage; /v1/eval/batch evaluates on the request goroutine", st.Name())
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		`sgserve_stage_seconds_count{stage="queue_wait"} 1`,
		`sgserve_stage_seconds_count{stage="validate"} 2`,
		`sgserve_stage_seconds_count{stage="eval"} 2`,
		`sgserve_stage_seconds_count{stage="decode"} 2`,
		`sgserve_stage_seconds_count{stage="load"} 1`,
		"sgserve_panics_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTracingDisabled: TraceRing < 0 must serve an empty trace list,
// skip the X-Request-Id header, and still answer correctly.
func TestTracingDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond, TraceRing: -1}, 2)
	h := s.Handler()
	rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
	if rec.Code != 200 {
		t.Fatalf("eval with tracing off: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-Id") != "" {
		t.Error("X-Request-Id set with tracing disabled")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if strings.TrimSpace(rec.Body.String()) != `{"traces":[]}` {
		t.Errorf("/debug/traces with tracing off = %q", rec.Body.String())
	}
}

// TestAccessLog: every request emits one structured line with the
// request identity and stage breakdown.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	lock := &lockedWriter{mu: &mu, w: &logBuf}
	s, _ := newTestServer(t, Config{
		Coalesce:  true,
		BatchWait: time.Millisecond,
		AccessLog: slog.New(slog.NewJSONHandler(lock, nil)),
	}, 2)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}}); rec.Code != 200 {
		t.Fatalf("eval: %d %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: "nope", Point: []float64{0.5, 0.5}}); rec.Code != 404 {
		t.Fatalf("eval unknown: %d", rec.Code)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d access log lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("access log line is not JSON: %v (%s)", err, lines[0])
	}
	for _, key := range []string{"request_id", "handler", "status", "total", "grid", "points", "eval", "queue_wait"} {
		if _, ok := first[key]; !ok {
			t.Errorf("access log line missing %q: %s", key, lines[0])
		}
	}
	if first["grid"] != "g2" || first["status"] != float64(200) {
		t.Errorf("access log line = %s", lines[0])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["status"] != float64(404) {
		t.Errorf("error line status = %v, want 404", second["status"])
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestColdLoadWaitSpan: a follower piggybacking on another request's
// in-flight load must attribute that wait to load_wait, not queue_wait
// or eval.
func TestColdLoadWaitSpan(t *testing.T) {
	s, _ := newTestServer(t, Config{Coalesce: true, BatchWait: time.Millisecond}, 2)
	loadStarted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.Grids().LoadHook = func(string) error {
		once.Do(func() {
			close(loadStarted)
			<-release
		})
		return nil
	}
	h := s.Handler()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // leader
		defer wg.Done()
		postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.5, 0.5}})
	}()
	go func() { // follower
		defer wg.Done()
		<-loadStarted
		time.Sleep(10 * time.Millisecond) // let the follower join the in-flight load
		postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g2", Point: []float64{0.25, 0.25}})
	}()
	go func() {
		<-loadStarted
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	wg.Wait()

	var sawLoad, sawWait bool
	for _, tr := range s.Tracer().Snapshot() {
		if d, ok := tr.StageS(obs.StageLoad); ok && d > 0.04 {
			sawLoad = true
		}
		if d, ok := tr.StageS(obs.StageLoadWait); ok && d > 0.02 {
			sawWait = true
		}
	}
	if !sawLoad {
		t.Error("no trace attributes the cold load to the load stage")
	}
	if !sawWait {
		t.Error("no trace attributes the singleflight wait to the load_wait stage")
	}
}
