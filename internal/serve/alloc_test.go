package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/obs"
)

func compressedGrid(t *testing.T, dim, level int, opts ...compactsg.Option) *compactsg.Grid {
	t.Helper()
	g, err := compactsg.New(dim, level, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(func(x []float64) float64 {
		p := 1.0
		for _, v := range x {
			p *= 4 * v * (1 - v)
		}
		return p
	})
	return g
}

// TestEvaluateBatchSteadyStateZeroAlloc: with a caller-provided output
// slice, batch evaluation must not allocate at steady state — the level
// vector and the per-query 1d basis tables come from the package pools.
// This is the invariant that keeps the eval pipeline's kernel stage
// and the serve flush loop allocation-free. It holds for one worker and for sgserve's auto
// worker count alike: a batch that fits one cache block runs on the
// calling goroutine.
func TestEvaluateBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	xs := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.5, 0.5, 0.5},
		{0.9, 0.1, 0.8, 0.2},
	}
	out := make([]float64, len(xs))
	for _, workers := range []int{1, 0} {
		g := compressedGrid(t, 4, 6, compactsg.WithWorkers(workers))
		// Warm the pools.
		if _, err := g.EvaluateBatch(xs, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := g.EvaluateBatch(xs, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: EvaluateBatch allocates %v objects per call at steady state, want 0", workers, allocs)
		}
	}
}

// TestTracedEvalRoundTripAllocs: attaching a span must keep a full
// handler round trip flat in allocations — the span is pooled and every
// stage lands in it by plain field writes, so tracing adds the same few
// allocations (trace publication, request-ID header) whether the
// request carries 1 point or 64.
func TestTracedEvalRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	// One worker, so the 64-point batch does not fan out to goroutines.
	allocs := func(cfg Config, n int) float64 {
		cfg.Workers = 1
		s, _ := newTestServer(t, cfg, 3)
		h := s.Handler()
		pts := make([][]float64, n)
		for k := range pts {
			pts[k] = []float64{0.25, 0.5, 0.75}
		}
		frame := AppendEvalFrame(nil, "g3", pts)
		for i := 0; i < 8; i++ { // warm the pools and load the grid
			if rec := postBin(t, h, frame); rec.Code != http.StatusOK {
				t.Fatalf("warmup status %d body %s", rec.Code, rec.Body)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if rec := postBin(t, h, frame); rec.Code != http.StatusOK {
				t.Fatal(rec.Code)
			}
		})
	}
	var spanCost []float64
	for _, n := range []int{1, 64} {
		traced, untraced := allocs(Config{}, n), allocs(Config{TraceRing: -1}, n)
		t.Logf("%d points: %.1f allocs traced, %.1f untraced (harness included)", n, traced, untraced)
		if traced > 120 {
			t.Errorf("%d points: traced round trip allocates %.1f times, want <= 120", n, traced)
		}
		spanCost = append(spanCost, traced-untraced)
	}
	if spanCost[0] != spanCost[1] || spanCost[0] > 8 {
		t.Errorf("tracing adds %.1f allocs at 1 point and %.1f at 64, want the same few", spanCost[0], spanCost[1])
	}
}

// TestBatcherSteadyStateZeroAlloc: a full coalesced round trip —
// submit, flush, deliver — must not allocate at steady state. The
// result channel is pooled, the flush timer is reused, and the batch
// buffers (calls, live, xs, out) are retained across flushes.
func TestBatcherSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := compressedGrid(t, 3, 5)
	b := newBatcher(g.EvaluateBatch, 1, time.Millisecond, nil)
	defer b.close()
	ctx := context.Background()
	x := []float64{0.25, 0.5, 0.75}
	// Warm the pools and the batcher's retained buffers.
	for k := 0; k < 8; k++ {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	// submit itself must be allocation-free; the flush loop runs on
	// another goroutine, so its (also pooled) work only shows up here
	// via timing jitter — allow a fraction below one object per call.
	if allocs > 0.5 {
		t.Fatalf("coalesced submit allocates %v objects per call at steady state, want 0", allocs)
	}
}

// TestBatcherTracedSubmitZeroAlloc: attaching an obs.Span must not add
// steady-state allocations to the coalesced path — the flush loop's
// timings travel by value in the pooled result channel and land in the
// span via plain field writes. This is the "tracing is free on the hot
// path" guarantee the observability layer is built on.
func TestBatcherTracedSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := compressedGrid(t, 3, 5)
	b := newBatcher(g.EvaluateBatch, 1, time.Millisecond, nil)
	defer b.close()
	tracer := obs.New(64)
	sp := tracer.Start("eval")
	defer sp.Finish()
	// The context is built once per request by instrument; only the
	// per-submit work below must stay allocation-free.
	ctx := obs.NewContext(context.Background(), sp)
	x := []float64{0.25, 0.5, 0.75}
	for k := 0; k < 8; k++ {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("traced coalesced submit allocates %v objects per call at steady state, want 0", allocs)
	}
	if !sp.Touched(obs.StageQueueWait) || !sp.Touched(obs.StageEval) || sp.BatchSize() < 1 {
		t.Fatal("span did not receive the flush loop's timings")
	}
}
