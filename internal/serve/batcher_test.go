package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/workload"
)

func loadTestGrid(t *testing.T, dim, level int) *compactsg.Grid {
	t.Helper()
	path, _ := writeGrid(t, t.TempDir(), dim, level)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := compactsg.LoadAny(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// submitWithin runs one submit and fails the test if it does not
// complete inside the deadline (i.e. the flush loop is wedged).
func submitWithin(t *testing.T, b *batcher, x []float64, d time.Duration) (float64, error) {
	t.Helper()
	type res struct {
		v   float64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := b.submit(context.Background(), x)
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(d):
		t.Fatal("submit wedged: flush loop is not making progress")
		return 0, nil
	}
}

// TestBatcherAbandonedCallerCannotWedgeFlushLoop is the regression test
// for the lost-wakeup wedge: deliver a call whose result channel is
// UNBUFFERED and never read (the worst possible abandoned caller). A
// flush loop that sends results with a plain blocking send would hang
// on it forever; the batcher must keep serving other callers.
func TestBatcherAbandonedCallerCannotWedgeFlushLoop(t *testing.T) {
	g := loadTestGrid(t, 2, 3)
	b := newBatcher(g.EvaluateBatch, 2, time.Millisecond, nil)
	defer b.close()

	// White-box injection: worst-case abandoned call — live context, so
	// the flush loop evaluates it, but nobody ever reads the result.
	b.in <- evalCall{ctx: context.Background(), x: []float64{0.25, 0.75}, res: make(chan evalResult)}

	for k := 0; k < 3; k++ {
		v, err := submitWithin(t, b, []float64{0.5, 0.5}, 5*time.Second)
		if err != nil {
			t.Fatalf("submit %d after abandoned call: %v", k, err)
		}
		if v == 0 {
			t.Fatalf("submit %d returned 0, want the parabola peak value", k)
		}
	}
}

// TestBatcherSkipsCancelledCalls verifies the flush loop drops calls
// whose context was cancelled after enqueue instead of evaluating them:
// four dead calls plus one live one fill a maxBatch=5 batch, and the
// dispatch must contain exactly the live point.
func TestBatcherSkipsCancelledCalls(t *testing.T) {
	g := loadTestGrid(t, 2, 3)
	var flushes []int
	var mu sync.Mutex
	b := newBatcher(g.EvaluateBatch, 5, time.Hour, func(n int) {
		mu.Lock()
		flushes = append(flushes, n)
		mu.Unlock()
	})
	defer b.close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for k := 0; k < 4; k++ {
		b.in <- evalCall{ctx: dead, x: []float64{0.1, 0.1}, res: make(chan evalResult, 1)}
	}
	// The live call fills the batch; the hour-long timer never fires,
	// so dispatch happens exactly when the batch reaches 5 calls.
	x := []float64{0.5, 0.5}
	v, err := submitWithin(t, b, x, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.Evaluate(x)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("live call value = %g, want %g", v, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushes) != 1 || flushes[0] != 1 {
		t.Fatalf("flushes = %v, want [1] (four cancelled calls must be skipped)", flushes)
	}
}

// TestBatcherCancelAfterEnqueue exercises the real client sequence:
// enqueue, abandon via cancel, and verify later submits still complete.
func TestBatcherCancelAfterEnqueue(t *testing.T) {
	g := loadTestGrid(t, 2, 3)
	b := newBatcher(g.EvaluateBatch, 2, 20*time.Millisecond, nil)
	defer b.close()

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := b.submit(ctx, []float64{0.25, 0.25})
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it enqueue into the open batch
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("abandoned submit err = %v, want context.Canceled", err)
	}
	for k := 0; k < 3; k++ {
		if _, err := submitWithin(t, b, []float64{0.5, 0.5}, 5*time.Second); err != nil {
			t.Fatalf("submit %d after cancel: %v", k, err)
		}
	}
}

// TestServerEvictionUnderLoad drives /v1/eval concurrently across more
// grids than resident slots with churn-heavy traffic, asserts every
// response succeeds, and verifies no batcher flush goroutine leaks once
// the server closes.
func TestServerEvictionUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	const grids = 5
	dims := make([]int, grids)
	for k := range dims {
		dims[k] = 2 + k
	}
	s, _ := newTestServer(t, Config{
		Coalesce:    true,
		BatchWait:   500 * time.Microsecond,
		MaxBatch:    16,
		MaxResident: 2,
	}, dims...)
	h := s.Handler()

	var wg sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, 1)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				d := dims[(w+k)%grids]
				name := fmt.Sprintf("g%d", d)
				x := workload.Points(int64(w*100000+k), 1, d)[0]
				rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: name, Point: x})
				if rec.Code != http.StatusOK {
					fail(fmt.Errorf("worker %d req %d (%s): status %d body %s", w, k, name, rec.Code, rec.Body))
					return
				}
			}
		}(w)
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if s.met.evictions.Value() == 0 {
		t.Error("stress ran without a single eviction; test is not exercising churn")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, before)
}
