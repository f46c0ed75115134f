package main

// -store-chaos: the tiered-store scenario. One in-process server loads
// every grid through a content-addressed store whose cache cap holds
// fewer files than the catalog, over a remote tier that injects
// latency, a ~5% fetch error rate, and one outright corrupted blob:
//
//   - a dedup phase (injection off) fires 16 concurrent Gets for one
//     cold key straight at the store and 16 concurrent evals for
//     another through the server — each must cost exactly one remote
//     fetch (store-level and registry-level singleflight),
//   - hot workers hammer one grid while cold workers cycle the rest,
//     so evictions and refetches run continuously under verify-on-fill,
//   - a dedicated worker hammers the grid whose remote blob is
//     corrupted: every response must fail and nothing may be cached
//     until the blob heals mid-run, after which it must serve the
//     correct values,
//   - a monitor asserts the cache size never exceeds the cap, not even
//     transiently.
//
// At the end the store's own counters must balance (misses == remote
// attempts == fills + uncached + fetch failures + verify failures),
// must agree with what /metrics reports, evictions must have happened,
// and goroutines and file mappings must drain to baseline.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/serve"
	"compactsg/internal/store"
)

// flakyRemote wraps a Remote with deterministic-seed latency and error
// injection plus per-key fetch-attempt counters (the ground truth the
// store's miss/dedup counters are checked against).
type flakyRemote struct {
	inner   store.Remote
	inject  atomic.Bool
	mu      sync.Mutex
	rng     *rand.Rand
	attempt map[string]*atomic.Uint64
}

func newFlakyRemote(inner store.Remote, seed int64) *flakyRemote {
	return &flakyRemote{inner: inner, rng: rand.New(rand.NewSource(seed)), attempt: make(map[string]*atomic.Uint64)}
}

func (f *flakyRemote) counter(key string) *atomic.Uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.attempt[key]
	if !ok {
		c = &atomic.Uint64{}
		f.attempt[key] = c
	}
	return c
}

func (f *flakyRemote) attempts() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, c := range f.attempt {
		n += c.Load()
	}
	return n
}

func (f *flakyRemote) Fetch(ctx context.Context, key string) (io.ReadCloser, error) {
	f.counter(key).Add(1)
	if f.inject.Load() {
		f.mu.Lock()
		delay := time.Duration(f.rng.Intn(2000)) * time.Microsecond
		fail := f.rng.Intn(100) < 5
		f.mu.Unlock()
		time.Sleep(delay)
		if fail {
			return nil, fmt.Errorf("injected remote fault for %s", key)
		}
	}
	return f.inner.Fetch(ctx, key)
}

func storeChaos(cfg config) error {
	goroutinesBefore := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "sgstress-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gridDir := filepath.Join(dir, "grids")
	remoteDir := filepath.Join(dir, "remote")
	cacheDir := filepath.Join(dir, "cache")
	for _, d := range []string{gridDir, remoteDir, cacheDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}

	// Catalog: cfg.grids snapshots published into the remote tier by
	// content address. The last one's remote blob is corrupted in place
	// (payload bit flip) and heals only mid-run.
	type gridSrc struct {
		name string
		key  string
		ref  *compactsg.Grid
		size int64
	}
	catalog := make([]gridSrc, 0, cfg.grids)
	var fileSize int64
	for k := 0; k < cfg.grids; k++ {
		name := fmt.Sprintf("g%d", k)
		path, ref, err := writeGridFile(gridDir, name, cfg.dim, cfg.level, float64(k+1))
		if err != nil {
			return err
		}
		key, err := store.KeyOfFile(path)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(remoteDir, key+".sg"), raw, 0o644); err != nil {
			return err
		}
		fileSize = int64(len(raw))
		catalog = append(catalog, gridSrc{name: name, key: key, ref: ref, size: fileSize})
	}
	poison := catalog[len(catalog)-1]
	poisonBlob := filepath.Join(remoteDir, poison.key+".sg")
	goodBytes, err := os.ReadFile(poisonBlob)
	if err != nil {
		return err
	}
	badBytes := append([]byte(nil), goodBytes...)
	badBytes[4096+11] ^= 0x20
	if err := os.WriteFile(poisonBlob, badBytes, 0o644); err != nil {
		return err
	}

	// Cache cap: roughly half the catalog, never the whole of it — the
	// whole point is eviction churn under verified refetch.
	capFiles := cfg.grids / 2
	if capFiles < 2 {
		capFiles = 2
	}
	capBytes := int64(capFiles)*fileSize + fileSize/2
	flaky := newFlakyRemote(&store.FSRemote{Dir: remoteDir}, cfg.seed)
	st, err := store.Open(store.Config{Dir: cacheDir, CapBytes: capBytes, Remote: flaky})
	if err != nil {
		return err
	}
	defer st.Close()

	srv := serve.New(serve.Config{
		Workers:        cfg.workers,
		MaxResident:    cfg.resident,
		Coalesce:       true,
		MaxBatch:       cfg.maxBatch,
		BatchWait:      cfg.batchWait,
		RequestTimeout: cfg.timeout,
		Store:          st,
	})
	for _, g := range catalog {
		if err := srv.AddStoredGrid(g.name, g.key); err != nil {
			return err
		}
	}
	h := srv.Handler()

	// Phase 1 — singleflight dedup, injection off. 16 concurrent Gets
	// on one cold key must cost exactly one remote fetch; likewise 16
	// concurrent evals for another name through the whole server stack.
	dedupStore := catalog[1]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj, err := st.Get(context.Background(), dedupStore.key)
			if err == nil {
				obj.Release()
			}
		}()
	}
	wg.Wait()
	if got := flaky.counter(dedupStore.key).Load(); got != 1 {
		return fmt.Errorf("store singleflight leaked: %d remote fetches for one cold key, want 1", got)
	}
	if s := st.Stats(); s.Misses != 1 || s.Hits != 15 {
		return fmt.Errorf("dedup phase stats: misses=%d hits=%d, want 1/15", s.Misses, s.Hits)
	}

	dedupServe := catalog[2]
	evalJSON := func(ctx context.Context, name string, x []float64) (*httptest.ResponseRecorder, error) {
		body, err := json.Marshal(map[string]any{"grid": name, "point": x})
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(string(body))).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec, nil
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float64, cfg.dim)
			for t := range x {
				x[t] = 0.5
			}
			rec, err := evalJSON(context.Background(), dedupServe.name, x)
			if err == nil && rec.Code != http.StatusOK {
				err = fmt.Errorf("status %d", rec.Code)
			}
			_ = err // verified below via the fetch counter
		}()
	}
	wg.Wait()
	if got := flaky.counter(dedupServe.key).Load(); got != 1 {
		return fmt.Errorf("registry+store singleflight leaked: %d remote fetches for one cold grid, want 1", got)
	}

	// Phase 2 — chaos traffic with injection on.
	flaky.inject.Store(true)
	ctx, stop := context.WithTimeout(context.Background(), cfg.duration)
	defer stop()
	fail := &firstErr{}
	var evals, tolerated atomic.Uint64

	checkStoredEval := func(rctx context.Context, g gridSrc, rng *rand.Rand) error {
		x := make([]float64, cfg.dim)
		for t := range x {
			x[t] = rng.Float64()
		}
		rec, err := evalJSON(rctx, g.name, x)
		if err != nil {
			return err
		}
		if rec.Code != http.StatusOK {
			// Injected remote faults surface as cold-load failures;
			// anything else is a real bug.
			body := rec.Body.String()
			if strings.Contains(body, "injected remote fault") || strings.Contains(body, "store:") {
				tolerated.Add(1)
				return nil
			}
			return fmt.Errorf("eval %s: status %d body %s", g.name, rec.Code, strings.TrimSpace(body))
		}
		var resp struct {
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("eval %s: bad body %q: %v", g.name, rec.Body, err)
		}
		want, err := g.ref.Evaluate(x)
		if err != nil {
			return err
		}
		if math.Abs(resp.Value-want) > 1e-9 {
			return fmt.Errorf("eval %s at %v: got %g want %g (store served wrong bytes?)", g.name, x, resp.Value, want)
		}
		evals.Add(1)
		return nil
	}

	hot := catalog[0]
	coldPool := catalog[1 : len(catalog)-1] // poison handled by its own worker
	for w := 0; w < cfg.hot; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for ctx.Err() == nil {
				rctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
				err := checkStoredEval(rctx, hot, rng)
				cancel()
				if err != nil {
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
				g := coldPool[rng.Intn(len(coldPool))]
				rctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
				err := checkStoredEval(rctx, g, rng)
				cancel()
				if err != nil {
					fail.set(fmt.Errorf("cold worker %d: %w", w, err))
					return
				}
			}
		}(w)
	}

	// Cap monitor: the size invariant must hold at every instant, not
	// just at the end.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if s := st.Stats(); s.SizeBytes > capBytes {
					fail.set(fmt.Errorf("cache size %d exceeded cap %d mid-run", s.SizeBytes, capBytes))
					stop()
					return
				}
			}
		}
	}()

	// Page-drop churn on the hot grid: madvise under live traffic must
	// never change values (the pages just refault).
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(cfg.duration / 10)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				srv.Grids().DropPages(hot.name) // best-effort; grid may be evicted
				if rb := srv.Grids().ResidentPayloadBytes(); rb < 0 {
					fail.set(fmt.Errorf("negative resident payload estimate %d", rb))
					return
				}
			}
		}
	}()

	// Poison worker: until the blob heals, every eval of the poisoned
	// grid must fail and the corrupt bytes must never enter the cache.
	// After healing it must come back with correct values. healing
	// closes just before the good blob is swapped in, and the worker
	// reads it only after its request returned: a fetch that raced the
	// swap may legitimately have read the healed blob.
	healing := make(chan struct{})
	healStarted := func() bool {
		select {
		case <-healing:
			return true
		default:
			return false
		}
	}
	var healedServed atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed + 9000))
		for ctx.Err() == nil {
			rctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			x := make([]float64, cfg.dim)
			for t := range x {
				x[t] = rng.Float64()
			}
			rec, err := evalJSON(rctx, poison.name, x)
			cancel()
			if err != nil {
				fail.set(err)
				return
			}
			if rec.Code == http.StatusOK {
				if !healStarted() {
					fail.set(fmt.Errorf("poisoned grid %s served before its blob healed", poison.name))
					return
				}
				var resp struct {
					Value float64 `json:"value"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					fail.set(err)
					return
				}
				want, _ := poison.ref.Evaluate(x)
				if math.Abs(resp.Value-want) > 1e-9 {
					fail.set(fmt.Errorf("healed grid %s: got %g want %g", poison.name, resp.Value, want))
					return
				}
				healedServed.Store(true)
			} else if st.Contains(poison.key) && !healStarted() {
				fail.set(fmt.Errorf("corrupt remote blob for %s entered the cache", poison.name))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Heal the poisoned blob at half-time (atomic replace so a racing
	// fetch sees either version whole, never a torn file).
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			return
		case <-time.After(cfg.duration / 2):
		}
		tmp := poisonBlob + ".heal"
		if err := os.WriteFile(tmp, goodBytes, 0o644); err == nil {
			close(healing)
			os.Rename(tmp, poisonBlob)
		}
	}()

	wg.Wait()
	stop()
	if err := fail.get(); err != nil {
		return err
	}
	if evals.Load() == 0 {
		return fmt.Errorf("no successful evaluations; chaos did not run")
	}

	// Counter algebra at quiescence: every miss is one remote attempt,
	// and every attempt ended as exactly one of fill / uncached /
	// fetch failure / verify failure.
	s := st.Stats()
	attempts := flaky.attempts()
	if s.Misses != attempts {
		return fmt.Errorf("store misses %d != remote attempts %d", s.Misses, attempts)
	}
	if got := s.Fills + s.Uncached + s.FetchFailures + s.VerifyFailures; got != attempts {
		return fmt.Errorf("attempt outcomes %d (fills %d + uncached %d + fetchfail %d + verifyfail %d) != attempts %d",
			got, s.Fills, s.Uncached, s.FetchFailures, s.VerifyFailures, attempts)
	}
	if s.Evictions == 0 {
		return fmt.Errorf("no evictions despite cap %d < catalog %d files", capFiles, cfg.grids)
	}
	if s.VerifyFailures == 0 {
		return fmt.Errorf("corrupted blob never tripped verification")
	}
	if s.SizeBytes > capBytes {
		return fmt.Errorf("final cache size %d exceeds cap %d", s.SizeBytes, capBytes)
	}
	if !healedServed.Load() {
		return fmt.Errorf("poisoned grid never recovered after its blob healed")
	}

	// The server's /metrics surface must agree with the store's own
	// counters exactly (no traffic is in flight now).
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	mtext := mrec.Body.String()
	for name, want := range map[string]uint64{
		"sgserve_store_hits":      s.Hits,
		"sgserve_store_misses":    s.Misses,
		"sgserve_store_fills":     s.Fills,
		"sgserve_store_evictions": s.Evictions,
	} {
		gotStr := metricValue(mtext, name)
		got, err := strconv.ParseFloat(gotStr, 64)
		if err != nil || uint64(got) != want {
			return fmt.Errorf("/metrics %s = %q, store says %d", name, gotStr, want)
		}
	}

	srv.Close()
	if err := checkGoroutines(goroutinesBefore); err != nil {
		return err
	}
	if n := settleMappings(); n != 0 {
		return fmt.Errorf("%d file mappings still active after Close", n)
	}
	fmt.Printf("store-chaos PASS: grids=%d capFiles=%d evals=%d tolerated=%d hits=%d misses=%d fills=%d evictions=%d uncached=%d fetchFail=%d verifyFail=%d GOMAXPROCS=%d\n",
		cfg.grids, capFiles, evals.Load(), tolerated.Load(), s.Hits, s.Misses, s.Fills, s.Evictions, s.Uncached, s.FetchFailures, s.VerifyFailures, runtime.GOMAXPROCS(0))
	return nil
}
