// Command sgstress is the race-hunting chaos harness for the serving
// layer (internal/serve). It stands up an in-process Server over more
// grids than the resident bound allows, then hammers it from three
// worker populations at once:
//
//   - hot workers pin one grid with a continuous stream of /v1/eval
//     requests (the latency victims if anything blocks the fast path),
//   - cold workers cycle through every other grid, forcing constant
//     LRU eviction, reload and batcher drain churn,
//   - cancellers fire requests with microsecond deadlines so contexts
//     die before, during and after enqueue into open micro-batches,
//
// while a churn goroutine keeps registering brand-new grid files
// mid-flight. Loads can be artificially inflated (-load-delay) to make
// head-of-line blocking measurable: before the singleflight rework, a
// cold load held the registry mutex through the file read, so every
// request — resident or not — queued behind it.
//
// Every response is checked against a reference grid; at the end the
// harness drains the server and verifies no goroutine leaked. It exits
// non-zero on any wrong value, unexpected status, leak, or (with
// -assert-hot-p50) a hot-path median latency above the bound. Run it
// under -race in CI:
//
//	go run -race ./cmd/sgstress -duration 2s
//	go run -race ./cmd/sgstress -duration 5s -load-delay 25ms -assert-hot-p50 20ms
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/obs"
	"compactsg/internal/serve"
	"compactsg/internal/serve/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sgstress: FAIL:", err)
		os.Exit(1)
	}
}

type config struct {
	grids      int
	resident   int
	dim        int
	level      int
	duration   time.Duration
	hot        int
	cold       int
	cancellers int
	churn      time.Duration
	loadDelay  time.Duration
	seed       int64
	assertP50  time.Duration
	maxBatch   int
	batchWait  time.Duration
	timeout    time.Duration
	workers    int
	protocol   string
	shardChaos bool
	shardCount int
	replicas   int
	swapChaos  bool
	storeChaos bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("sgstress", flag.ContinueOnError)
	cfg := config{}
	fs.IntVar(&cfg.grids, "grids", 6, "initial grid count (resident bound deliberately smaller)")
	fs.IntVar(&cfg.resident, "resident", 2, "max resident grids (LRU beyond)")
	fs.IntVar(&cfg.dim, "dim", 3, "grid dimensionality")
	fs.IntVar(&cfg.level, "level", 5, "grid refinement level")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "traffic duration")
	fs.IntVar(&cfg.hot, "hot", 2, "workers hammering the pinned hot grid")
	fs.IntVar(&cfg.cold, "cold", 4, "workers cycling cold grids (eviction churn)")
	fs.IntVar(&cfg.cancellers, "cancellers", 2, "workers firing requests with microsecond deadlines")
	fs.DurationVar(&cfg.churn, "churn", 100*time.Millisecond, "interval between mid-flight grid registrations (0 = off)")
	fs.DurationVar(&cfg.loadDelay, "load-delay", 20*time.Millisecond, "artificial extra latency per grid load (0 = off)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base RNG seed")
	fs.DurationVar(&cfg.assertP50, "assert-hot-p50", 0, "fail if hot-grid MEDIAN latency exceeds this bound (0 = report only)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 64, "micro-batch size cap")
	fs.DurationVar(&cfg.batchWait, "batch-wait", time.Millisecond, "micro-batch linger")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request timeout for hot/cold workers")
	fs.IntVar(&cfg.workers, "workers", 2, "evaluation worker pool per grid (0 = auto: GOMAXPROCS)")
	fs.StringVar(&cfg.protocol, "protocol", "mix", "wire protocol for eval traffic: json, bin, or mix (each request flips a coin)")
	fs.BoolVar(&cfg.shardChaos, "shard-chaos", false, "run the sharded-proxy chaos scenario instead: kill and replace a shard mid-traffic behind an in-process sgproxy")
	fs.IntVar(&cfg.shardCount, "shard-count", 3, "shards behind the proxy in -shard-chaos")
	fs.IntVar(&cfg.replicas, "replicas", 2, "replica assignment per grid name in -shard-chaos")
	fs.BoolVar(&cfg.swapChaos, "swap-chaos", false, "run the online hot-swap chaos scenario instead: concurrent observe/refine/swap vs mixed-protocol eval traffic")
	fs.BoolVar(&cfg.storeChaos, "store-chaos", false, "run the tiered-store chaos scenario instead: cache cap < catalog under hot/cold traffic with remote latency/error injection and one corrupted blob")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.protocol != "json" && cfg.protocol != "bin" && cfg.protocol != "mix" {
		return fmt.Errorf("unknown -protocol %q", cfg.protocol)
	}
	if cfg.grids < 2 {
		return fmt.Errorf("-grids must be at least 2 (one hot, one churning)")
	}
	if cfg.storeChaos {
		if cfg.grids < 4 {
			return fmt.Errorf("-store-chaos needs at least 4 grids (hot + cold pool + poisoned)")
		}
		return storeChaos(cfg)
	}
	if cfg.swapChaos {
		return swapChaos(cfg)
	}
	if cfg.shardChaos {
		if cfg.shardCount < 3 {
			return fmt.Errorf("-shard-chaos needs at least 3 shards (one dies mid-run)")
		}
		if cfg.replicas < 2 {
			return fmt.Errorf("-shard-chaos needs -replicas >= 2 (failover must have somewhere to go)")
		}
		return shardChaos(cfg)
	}
	return stress(cfg)
}

// pool is the shared name → reference-grid table; the churn goroutine
// appends to it while cold workers and cancellers draw from it.
type pool struct {
	mu    sync.RWMutex
	names []string
	refs  map[string]*compactsg.Grid
}

func (p *pool) add(name string, ref *compactsg.Grid) {
	p.mu.Lock()
	p.names = append(p.names, name)
	p.refs[name] = ref
	p.mu.Unlock()
}

func (p *pool) pick(rng *rand.Rand) (string, *compactsg.Grid) {
	p.mu.RLock()
	name := p.names[rng.Intn(len(p.names))]
	ref := p.refs[name]
	p.mu.RUnlock()
	return name, ref
}

// stats is one worker population's latency record.
type stats struct {
	lat  *metrics.Histogram
	max  atomic.Uint64 // float64 bits
	n    atomic.Uint64
	errs atomic.Uint64
}

func newStats(r *metrics.Registry, name string) *stats {
	return &stats{lat: r.NewHistogram(name, name, metrics.DefLatencyBuckets)}
}

func (s *stats) observe(d time.Duration) {
	sec := d.Seconds()
	s.lat.Observe(sec)
	s.n.Add(1)
	for {
		old := s.max.Load()
		if sec <= math.Float64frombits(old) {
			return
		}
		if s.max.CompareAndSwap(old, math.Float64bits(sec)) {
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

// firstErr records the first failure across all workers.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func writeGridFile(dir, name string, dim, level int, scale float64) (string, *compactsg.Grid, error) {
	g, err := compactsg.New(dim, level)
	if err != nil {
		return "", nil, err
	}
	g.Compress(func(x []float64) float64 {
		p := scale
		for _, v := range x {
			p *= 4 * v * (1 - v)
		}
		return p
	})
	path := filepath.Join(dir, name+".sg")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return "", nil, err
	}
	return path, g, f.Close()
}

func stress(cfg config) error {
	goroutinesBefore := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "sgstress")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv := serve.New(serve.Config{
		Workers:        cfg.workers,
		MaxResident:    cfg.resident,
		Coalesce:       true,
		MaxBatch:       cfg.maxBatch,
		BatchWait:      cfg.batchWait,
		RequestTimeout: cfg.timeout,
	})
	if cfg.loadDelay > 0 {
		srv.Grids().LoadHook = func(string) error {
			time.Sleep(cfg.loadDelay)
			return nil
		}
	}

	p := &pool{refs: make(map[string]*compactsg.Grid)}
	hotName := "g0"
	var hotRef *compactsg.Grid
	for k := 0; k < cfg.grids; k++ {
		name := fmt.Sprintf("g%d", k)
		path, ref, err := writeGridFile(dir, name, cfg.dim, cfg.level, float64(k+1))
		if err != nil {
			return err
		}
		if err := srv.AddGrid(name, path); err != nil {
			return err
		}
		if k == 0 {
			hotRef = ref
		} else {
			p.add(name, ref) // hot grid excluded from the churn pool
		}
	}

	reg := metrics.NewRegistry()
	hotStats := newStats(reg, "hot_seconds")
	coldStats := newStats(reg, "cold_seconds")
	cancelStats := newStats(reg, "cancel_seconds")
	var cancelled, churned atomic.Uint64
	fail := &firstErr{}

	h := srv.Handler()
	post := func(ctx context.Context, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	evalBody := func(name string, x []float64) string {
		var b strings.Builder
		fmt.Fprintf(&b, `{"grid":%q,"point":[`, name)
		for t, v := range x {
			if t > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteString("]}")
		return b.String()
	}
	randPoint := func(rng *rand.Rand, dim int) []float64 {
		x := make([]float64, dim)
		for t := range x {
			x[t] = rng.Float64()
		}
		return x
	}
	postBin := func(ctx context.Context, frame []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/eval/bin", strings.NewReader(string(frame))).WithContext(ctx)
		req.Header.Set("Content-Type", serve.BinContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// useBin decides each request's wire protocol per -protocol.
	useBin := func(rng *rand.Rand) bool {
		switch cfg.protocol {
		case "bin":
			return true
		case "json":
			return false
		}
		return rng.Intn(2) == 1
	}
	// checkEval fires one request — JSON against the coalescing
	// /v1/eval or a binary frame against /v1/eval/bin — and verifies
	// status and value against the reference grid either way.
	checkEval := func(ctx context.Context, name string, ref *compactsg.Grid, rng *rand.Rand, st *stats) error {
		x := randPoint(rng, cfg.dim)
		var got float64
		if useBin(rng) {
			start := time.Now()
			rec := postBin(ctx, serve.AppendEvalFrame(nil, name, [][]float64{x}))
			st.observe(time.Since(start))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("eval/bin %s: status %d body %s", name, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			vals, err := serve.ParseValuesFrame(rec.Body.Bytes())
			if err != nil || len(vals) != 1 {
				return fmt.Errorf("eval/bin %s: bad response frame (%d bytes): %v", name, rec.Body.Len(), err)
			}
			got = vals[0]
		} else {
			start := time.Now()
			rec := post(ctx, evalBody(name, x))
			st.observe(time.Since(start))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("eval %s: status %d body %s", name, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			var resp struct {
				Value float64 `json:"value"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return fmt.Errorf("eval %s: bad body %q: %v", name, rec.Body, err)
			}
			got = resp.Value
		}
		want, err := ref.Evaluate(x)
		if err != nil {
			return err
		}
		if math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("eval %s at %v: got %g want %g (served the wrong grid instance?)", name, x, got, want)
		}
		return nil
	}

	ctx, stop := context.WithTimeout(context.Background(), cfg.duration)
	defer stop()
	var wg sync.WaitGroup

	for w := 0; w < cfg.hot; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for ctx.Err() == nil {
				rctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
				err := checkEval(rctx, hotName, hotRef, rng, hotStats)
				cancel()
				if err != nil {
					hotStats.errs.Add(1)
					fail.set(fmt.Errorf("hot worker %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	for w := 0; w < cfg.cold; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 1000 + int64(w)))
			for ctx.Err() == nil {
				name, ref := p.pick(rng)
				rctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
				err := checkEval(rctx, name, ref, rng, coldStats)
				cancel()
				if err != nil {
					coldStats.errs.Add(1)
					fail.set(fmt.Errorf("cold worker %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	for w := 0; w < cfg.cancellers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 2000 + int64(w)))
			for ctx.Err() == nil {
				name, _ := p.pick(rng)
				// Deadlines from 0 to ~2× the batch linger: contexts die
				// before enqueue, inside the open batch, and after flush.
				d := time.Duration(rng.Int63n(int64(2*cfg.batchWait) + 1))
				rctx, cancel := context.WithTimeout(context.Background(), d)
				start := time.Now()
				var rec *httptest.ResponseRecorder
				if useBin(rng) {
					// Deadline expiry on the bin path stops the kernel
					// between cache blocks while the request still holds
					// its lease and its pooled frame.
					rec = postBin(rctx, serve.AppendEvalFrame(nil, name, [][]float64{randPoint(rng, cfg.dim)}))
				} else {
					rec = post(rctx, evalBody(name, randPoint(rng, cfg.dim)))
				}
				cancelStats.observe(time.Since(start))
				cancel()
				switch rec.Code {
				case http.StatusOK:
				case 499, http.StatusServiceUnavailable: // cancelled / deadline
					cancelled.Add(1)
				default:
					cancelStats.errs.Add(1)
					fail.set(fmt.Errorf("canceller %d: eval %s: status %d body %s", w, name, rec.Code, strings.TrimSpace(rec.Body.String())))
					return
				}
			}
		}(w)
	}
	if cfg.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.churn)
			defer tick.Stop()
			for k := 0; ; k++ {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				name := fmt.Sprintf("churn%d", k)
				path, ref, err := writeGridFile(dir, name, cfg.dim, cfg.level, 100+float64(k))
				if err != nil {
					fail.set(fmt.Errorf("churn: %w", err))
					return
				}
				if err := srv.AddGrid(name, path); err != nil {
					fail.set(fmt.Errorf("churn: %w", err))
					return
				}
				p.add(name, ref)
				churned.Add(1)
			}
		}()
	}

	wg.Wait()
	stop()

	// Final sanity probes while the server is still up.
	for _, url := range []string{"/v1/grids", "/metrics", "/healthz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			fail.set(fmt.Errorf("GET %s after stress: status %d", url, rec.Code))
		}
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	mtext := mrec.Body.String()
	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest("GET", "/debug/traces", nil))
	stageLine := summarizeTraces(trec.Body.Bytes())

	if err := srv.Close(); err != nil {
		return err
	}
	leak := checkGoroutines(goroutinesBefore)
	var mapLeak error
	if n := settleMappings(); n != 0 {
		mapLeak = fmt.Errorf("closed server leaked %d snapshot mappings", n)
	}

	fmt.Printf("sgstress: %d grids (+%d churned in), resident bound %d, %s traffic, GOMAXPROCS=%d\n",
		cfg.grids, churned.Load(), cfg.resident, cfg.duration, runtime.GOMAXPROCS(0))
	fmt.Printf("  workers: hot=%d cold=%d cancellers=%d, load-delay=%s, churn every %s\n",
		cfg.hot, cfg.cold, cfg.cancellers, cfg.loadDelay, cfg.churn)
	fmt.Printf("  hot  %s: %s\n", hotName, hotStats.line())
	fmt.Printf("  cold grids: %s\n", coldStats.line())
	fmt.Printf("  cancellers: %s, %d cancelled/timed out\n", cancelStats.line(), cancelled.Load())
	fmt.Printf("  server: loads=%s load-waits=%s evictions=%s drains=%s resident=%s panics=%s\n",
		metricValue(mtext, "sgserve_grid_loads_total"), metricValue(mtext, "sgserve_grid_load_waits_total"),
		metricValue(mtext, "sgserve_grid_evictions_total"), metricValue(mtext, "sgserve_batcher_drains_total"),
		metricValue(mtext, "sgserve_grids_resident"), metricValue(mtext, "sgserve_panics_total"))
	fmt.Printf("  loads by mode: mmap=%s copy=%s, failures=%s, mappings now=%d\n",
		metricValueOr(mtext, `sgserve_grid_load_mode_total{mode="mmap"}`, "0"),
		metricValueOr(mtext, `sgserve_grid_load_mode_total{mode="copy"}`, "0"),
		metricValue(mtext, "sgserve_grid_load_failures_total"), core.ActiveMappings())
	if stageLine != "" {
		fmt.Printf("  stages: %s\n", stageLine)
	}

	if err := fail.get(); err != nil {
		return err
	}
	if leak != nil {
		return leak
	}
	if mapLeak != nil {
		return mapLeak
	}
	if hotStats.n.Load() == 0 || coldStats.n.Load() == 0 {
		return fmt.Errorf("a worker population made no requests; stress did not run")
	}
	if metricValue(mtext, "sgserve_grid_evictions_total") == "0" {
		return fmt.Errorf("no evictions happened; harness is not exercising churn (raise -grids or -cold)")
	}
	if cfg.assertP50 > 0 {
		// The median, not the tail: on an oversubscribed GOMAXPROCS=1
		// CI box the p99 measures scheduler queueing behind real decode
		// work. The median is the serialization discriminator — before
		// the singleflight rework a load was in flight (holding the
		// registry mutex) almost continuously under this traffic, so
		// EVERY hot request queued behind it and the hot median sat at
		// or above the load time.
		p50sec, capped := hotStats.lat.QuantileCapped(0.50)
		p50 := time.Duration(p50sec * float64(time.Second))
		if capped {
			// The median fell in the +Inf overflow bucket: the histogram
			// only knows it is ≥ the last finite bound. Reporting that
			// bound as "the median" would silently pass an arbitrary
			// assertion, so a capped median is always a failure.
			return fmt.Errorf("hot-grid median overflowed the latency histogram (≥%s): cannot verify the %s bound",
				p50.Round(time.Microsecond), cfg.assertP50)
		}
		if p50 > cfg.assertP50 {
			return fmt.Errorf("hot-grid median = %s exceeds bound %s: cold loads are blocking the resident fast path",
				p50.Round(time.Microsecond), cfg.assertP50)
		}
		fmt.Printf("  PASS: hot median %s within bound %s despite %s cold loads\n",
			p50.Round(time.Microsecond), cfg.assertP50, cfg.loadDelay)
	}
	fmt.Println("  PASS")
	return nil
}

// settleMappings waits for the snapshot mapping count to drain to zero
// and returns the count it settled at, with checkGoroutines' tolerance.
func settleMappings() int64 {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := core.ActiveMappings()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkGoroutines waits for the goroutine count to settle back near the
// pre-server baseline and reports a leak (with stacks) if it does not.
func checkGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= baseline+2 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<18)
	n := runtime.Stack(buf, true)
	return fmt.Errorf("goroutine leak: %d before stress, %d after close\n%s", baseline, now, buf[:n])
}

// summarizeTraces turns the /debug/traces payload into a one-line
// queue-wait vs eval percentile comparison over the OK traces — the
// sampled ground truth for where hot-path time went (batch linger vs
// kernel), next to the client-side populations above.
func summarizeTraces(data []byte) string {
	traces, err := obs.ParseTraces(data)
	if err != nil || len(traces) == 0 {
		return ""
	}
	var qw, ev []float64
	for _, tr := range traces {
		if tr.Status != http.StatusOK {
			continue
		}
		if v, ok := tr.StageS(obs.StageQueueWait); ok {
			qw = append(qw, v)
		}
		if v, ok := tr.StageS(obs.StageEval); ok {
			ev = append(ev, v)
		}
	}
	if len(qw) == 0 && len(ev) == 0 {
		return ""
	}
	part := func(name string, vals []float64) string {
		if len(vals) == 0 {
			return name + " n/a"
		}
		sort.Float64s(vals)
		q := func(q float64) float64 { return vals[int(q*float64(len(vals)-1))] }
		return fmt.Sprintf("%s p50=%s p99=%s", name, fmtSec(q(0.50)), fmtSec(q(0.99)))
	}
	return fmt.Sprintf("%s | %s (%d traced requests)", part("queue_wait", qw), part("eval", ev), len(traces))
}

var metricLine = regexp.MustCompile(`(?m)^(\S+) (\S+)$`)

// metricValue extracts one unlabeled sample from the exposition text.
func metricValue(text, name string) string {
	for _, m := range metricLine.FindAllStringSubmatch(text, -1) {
		if m[1] == name {
			return m[2]
		}
	}
	return "?"
}

// metricValueOr is metricValue with a default for series that only
// materialize once incremented (labeled counter-vec children).
func metricValueOr(text, name, fallback string) string {
	if v := metricValue(text, name); v != "?" {
		return v
	}
	return fallback
}
