package main

// The plumbing every sgstress mode shares: the run's seed line and
// fault schedule, the worker launcher, the eval client, the bit-exact
// verifier, /metrics reads and the end-of-run leak check. A mode file
// holds only its scenario.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/serve"
	"compactsg/internal/serve/metrics"
)

// schedule is a run's fault points. Each is drawn from -seed and
// counted in operations, never in wall time, so a failing seed replays
// the same faults at the same points of its request streams.
type schedule struct {
	kill, replace uint64 // -shard-chaos: verified requests before the shard dies, and before its replacement
	heal          uint64 // -store-chaos: poison-worker attempts before the corrupt blob heals
	dropEvery     uint64 // -store-chaos: hot requests between page drops
}

func newSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(streamSeed(seed, -1)))
	s := schedule{kill: 100 + uint64(rng.Intn(300))}
	s.replace = s.kill + 100 + uint64(rng.Intn(300))
	s.heal = 10 + uint64(rng.Intn(40))
	s.dropEvery = 20 + uint64(rng.Intn(40))
	return s
}

// injected decides remote fetch number attempt of key: its latency
// (0–2 ms) and whether it fails (about 5 %). It hashes the seed, the
// key and the attempt, so the faults replay from -seed in whatever
// order concurrent fetches arrive.
func injected(seed int64, key string, attempt uint64) (time.Duration, bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, key, attempt)
	v := fmix(h.Sum64())
	return time.Duration(v%2000) * time.Microsecond, (v>>32)%100 < 5
}

// streamSeed derives the seed of one rng stream of a run from -seed, so
// that no two streams of a run, or of nearby seeds, share a sequence.
func streamSeed(seed, stream int64) int64 {
	return int64(fmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)))
}

// fmix is murmur3's 64-bit finalizer: each input bit flips about half
// of the output bits.
func fmix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return v ^ v>>33
}

// harness is one run: its seed, its -duration deadline, its goroutines
// and its first failure.
type harness struct {
	seed       int64
	ctx        context.Context
	stop       context.CancelFunc
	wg         sync.WaitGroup
	mu         sync.Mutex
	err        error
	goroutines int // before the run, for the leak check
}

// newHarness prints the run's first line — seed, mode and fault
// schedule — and starts the -duration clock.
func newHarness(cfg config, mode, sched string) *harness {
	fmt.Printf("sgstress: seed=%d mode=%s schedule: %s\n", cfg.seed, mode, sched)
	h := &harness{seed: cfg.seed, goroutines: runtime.NumGoroutine()}
	h.ctx, h.stop = context.WithTimeout(context.Background(), cfg.duration)
	return h
}

// fail records the run's first failure and ends the run.
func (h *harness) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.mu.Unlock()
	h.stop()
}

// spawn runs fn on its own goroutine; an error from it fails the run.
func (h *harness) spawn(fn func() error) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := fn(); err != nil {
			h.fail(err)
		}
	}()
}

// workers starts n workers of one population. Each runs step until the
// run ends or step fails, drawing from its own rng, stream base + its
// index of -seed, so its request stream replays from the seed. op
// numbers the population's steps from 1, the count its fault points
// are scheduled in.
func (h *harness) workers(name string, n int, base int64, step func(rng *rand.Rand, op uint64) error) {
	ops := new(atomic.Uint64)
	for w := 0; w < n; w++ {
		rng := rand.New(rand.NewSource(streamSeed(h.seed, base+int64(w))))
		h.spawn(func() error {
			for h.ctx.Err() == nil {
				if err := step(rng, ops.Add(1)); err != nil {
					return fmt.Errorf("%s worker %d: %w", name, w, err)
				}
			}
			return nil
		})
	}
}

// end waits for the run's goroutines, calls closeAll, and checks that
// no goroutine and no snapshot mapping outlived it. It returns the
// run's first failure, else closeAll's error, else the leak.
func (h *harness) end(closeAll func() error) error {
	h.wg.Wait()
	h.stop()
	cerr := closeAll()
	leak := checkLeaks(h.goroutines)
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.err != nil:
		return h.err
	case cerr != nil:
		return cerr
	}
	return leak
}

// checkLeaks waits up to 5 s for the goroutine count to settle near
// baseline and for every snapshot mapping to be released, and reports
// what did not, with every stack for a goroutine leak.
func checkLeaks(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, maps := runtime.NumGoroutine(), core.ActiveMappings()
		switch {
		case n <= baseline+2 && maps == 0:
			return nil
		case time.Now().Before(deadline):
			time.Sleep(20 * time.Millisecond)
		case n > baseline+2:
			buf := make([]byte, 1<<18)
			return fmt.Errorf("goroutine leak: %d before the run, %d after close\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		default:
			return fmt.Errorf("closed servers leaked %d snapshot mappings", maps)
		}
	}
}

// post sends one request to handler h and records the response.
func post(ctx context.Context, h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// client sends eval requests to one handler: a server or a proxy.
type client struct {
	h        http.Handler
	protocol string // -protocol
	dim      int
}

// reply is one eval round trip.
type reply struct {
	name string
	xs   [][]float64
	code int
	body string    // for a status other than 200
	vals []float64 // on 200, one per point
	took time.Duration
}

// eval posts random points of grid name with the given timeout, as a
// JSON point, a JSON batch of two points or a binary frame: bin always
// sends a frame, json picks between the JSON forms, and mix picks among
// all three. It fails only on a 200 whose body does not decode.
func (c client) eval(rng *rand.Rand, name string, timeout time.Duration) (reply, error) {
	form := rng.Intn(3)
	switch c.protocol {
	case "json":
		form = rng.Intn(2)
	case "bin":
		form = 2
	}
	xs := make([][]float64, 1+form%2)
	for k := range xs {
		xs[k] = make([]float64, c.dim)
		for t := range xs[k] {
			xs[k][t] = rng.Float64()
		}
	}
	path, ct := "/v1/eval/bin", serve.BinContentType
	var body []byte // Marshal fails only on NaN and ±Inf, which Float64 never draws
	switch form {
	case 0:
		path, ct = "/v1/eval", "application/json"
		body, _ = json.Marshal(serve.EvalRequest{Grid: name, Point: xs[0]})
	case 1:
		path, ct = "/v1/eval/batch", "application/json"
		body, _ = json.Marshal(serve.BatchRequest{Grid: name, Points: xs})
	default:
		body = serve.AppendEvalFrame(nil, name, xs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	rec := post(ctx, c.h, path, ct, body)
	r := reply{name: name, xs: xs, code: rec.Code, took: time.Since(start)}
	if r.code != http.StatusOK {
		r.body = rec.Body.String()
		return r, nil
	}
	var err error
	switch form {
	case 0:
		var resp struct{ Value float64 }
		err = json.Unmarshal(rec.Body.Bytes(), &resp)
		r.vals = []float64{resp.Value}
	case 1:
		var resp struct{ Values []float64 }
		err = json.Unmarshal(rec.Body.Bytes(), &resp)
		r.vals = resp.Values
	default:
		r.vals, err = serve.ParseValuesFrame(rec.Body.Bytes())
	}
	if err == nil && len(r.vals) != len(xs) {
		err = fmt.Errorf("%d values for %d points", len(r.vals), len(xs))
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: bad response %q: %v", path, name, rec.Body, err)
	}
	return r, nil
}

// ok fails a reply whose status is not 200.
func (r reply) ok() error {
	if r.code != http.StatusOK {
		return fmt.Errorf("eval %s: status %d body %s", r.name, r.code, strings.TrimSpace(r.body))
	}
	return nil
}

// verify requires a 200 whose every value is bit-identical
// (Float64bits) to ref at its point: the kernels' own invariant.
func verify(ref *compactsg.Grid, r reply) error {
	if err := r.ok(); err != nil {
		return err
	}
	for k, x := range r.xs {
		want, err := ref.Evaluate(x)
		if err != nil {
			return err
		}
		if math.Float64bits(r.vals[k]) != math.Float64bits(want) {
			return fmt.Errorf("eval %s at %v: got %v want %v", r.name, x, r.vals[k], want)
		}
	}
	return nil
}

// scrape reads h's /metrics.
func scrape(h http.Handler) (series, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return metrics.Parse(rec.Body)
}

// series is one /metrics scrape, keyed by series as written. Reports
// read it directly, where an absent series reads 0.
type series map[string]float64

// need returns a series an assertion reads: an absent one fails the
// run instead of reading as 0.
func (s series) need(name string) (float64, error) {
	v, ok := s[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no series %s", name)
	}
	return v, nil
}

// stats is one worker population's latency record and request count.
type stats struct {
	lat *metrics.Histogram
	max atomic.Uint64 // float64 bits
	n   atomic.Uint64
}

func newStats(name string) *stats {
	return &stats{lat: metrics.NewRegistry().NewHistogram(name, name, metrics.DefLatencyBuckets)}
}

// observe records one request's latency.
func (s *stats) observe(d time.Duration) {
	sec := d.Seconds()
	s.lat.Observe(sec)
	s.n.Add(1)
	for {
		old := s.max.Load()
		if sec <= math.Float64frombits(old) || s.max.CompareAndSwap(old, math.Float64bits(sec)) {
			return
		}
	}
}

func (s *stats) line() string {
	p50, c50 := s.lat.QuantileCapped(0.50)
	p99, c99 := s.lat.QuantileCapped(0.99)
	return fmt.Sprintf("p50=%s p99=%s max=%s (n=%d)",
		fmtCapped(p50, c50), fmtCapped(p99, c99),
		fmtSec(math.Float64frombits(s.max.Load())), s.n.Load())
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// fmtCapped flags quantiles that landed in the histogram's +Inf
// overflow bucket: the true value is only known to be ≥ the last
// finite bound, so reporting it bare would understate the latency.
func fmtCapped(s float64, capped bool) string {
	if capped {
		return "≥" + fmtSec(s) + "(capped)"
	}
	return fmtSec(s)
}
