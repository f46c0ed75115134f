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
//   - hot workers hammer one grid, dropping its pages every few
//     requests, while cold workers cycle the rest, so evictions and
//     refetches run continuously under verify-on-fill,
//   - a dedicated worker hammers the grid whose remote blob is
//     corrupted: every response must fail and nothing may be cached
//     until the worker heals the blob after its scheduled attempt,
//     after which the grid must serve the correct values,
//   - a monitor asserts the cache size never exceeds the cap, not even
//     transiently.
//
// At the end the store's own counters must balance (misses == remote
// attempts == fills + uncached + fetch failures + verify failures),
// must agree with what /metrics reports, evictions must have happened,
// and goroutines and file mappings must drain to baseline.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/serve"
	"compactsg/internal/store"
)

// flakyRemote wraps a Remote with seeded latency and error injection
// plus per-key fetch-attempt counters (the ground truth the store's
// miss/dedup counters are checked against).
type flakyRemote struct {
	inner   store.Remote
	seed    int64
	inject  atomic.Bool
	attempt sync.Map // key → *atomic.Uint64
}

func (f *flakyRemote) counter(key string) *atomic.Uint64 {
	c, _ := f.attempt.LoadOrStore(key, new(atomic.Uint64))
	return c.(*atomic.Uint64)
}

func (f *flakyRemote) attempts() uint64 {
	var n uint64
	f.attempt.Range(func(_, c any) bool {
		n += c.(*atomic.Uint64).Load()
		return true
	})
	return n
}

func (f *flakyRemote) Fetch(ctx context.Context, key string) (io.ReadCloser, error) {
	n := f.counter(key).Add(1)
	if f.inject.Load() {
		delay, fail := injected(f.seed, key, n)
		time.Sleep(delay)
		if fail {
			return nil, fmt.Errorf("injected remote fault for %s", key)
		}
	}
	return f.inner.Fetch(ctx, key)
}

func storeChaos(cfg config) error {
	sched := newSchedule(cfg.seed)
	h := newHarness(cfg, "store-chaos", fmt.Sprintf("poison blob healed after attempt %d, hot pages dropped every %d hot requests, remote faults hashed from (seed, key, attempt)", sched.heal, sched.dropEvery))
	dir, err := os.MkdirTemp("", "sgstress-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Catalog: the grid files, published into the remote tier (dir
	// itself) by content address. The last one's remote blob is
	// corrupted in place (payload bit flip) until the poison worker
	// heals it.
	files, err := writeGrids(dir, cfg)
	if err != nil {
		return err
	}
	type gridSrc struct {
		gridFile
		key string
	}
	catalog := make([]gridSrc, len(files))
	var fileSize int64
	for k, g := range files {
		key, err := store.KeyOfFile(g.path)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(g.path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, key+".sg"), raw, 0o644); err != nil {
			return err
		}
		fileSize = int64(len(raw))
		catalog[k] = gridSrc{g, key}
	}
	poison := catalog[len(catalog)-1]
	poisonBlob := filepath.Join(dir, poison.key+".sg")
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
	flaky := &flakyRemote{inner: &store.FSRemote{Dir: dir}, seed: cfg.seed}
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "cache"), CapBytes: capBytes, Remote: flaky})
	if err != nil {
		return err
	}
	defer st.Close()

	sc := serveConfig(cfg)
	sc.Store = st
	srv := serve.New(sc)
	for _, g := range catalog {
		if err := srv.AddStoredGrid(g.name, g.key); err != nil {
			return err
		}
	}
	handler := srv.Handler()
	c := client{h: handler, protocol: cfg.protocol, dim: cfg.dim}

	// Phase 1 — singleflight dedup, injection off. 16 concurrent Gets
	// on one cold key must cost exactly one remote fetch; likewise 16
	// concurrent evals for another name through the whole server stack,
	// each answered 200 and bit-exact.
	dedupStore, dedupServe := catalog[1], catalog[2]
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
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.eval(rand.New(rand.NewSource(streamSeed(cfg.seed, 3000+int64(i)))), dedupServe.name, cfg.timeout)
			if err == nil {
				err = verify(dedupServe.ref, r)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("dedup phase: %w", err)
	}
	if got := flaky.counter(dedupServe.key).Load(); got != 1 {
		return fmt.Errorf("registry+store singleflight leaked: %d remote fetches for one cold grid, want 1", got)
	}

	// Phase 2 — chaos traffic with injection on.
	flaky.inject.Store(true)
	var evals, tolerated, drops atomic.Uint64
	// check verifies one eval of g and reports whether it was served.
	// An injected remote fault surfaces as a failed cold load and is the
	// only failure tolerated: every other failed load of a healthy grid
	// is a bug.
	check := func(rng *rand.Rand, g gridSrc) (bool, error) {
		r, err := c.eval(rng, g.name, cfg.timeout)
		if err != nil {
			return false, err
		}
		if r.code != http.StatusOK && strings.Contains(r.body, "injected remote fault") {
			tolerated.Add(1)
			return false, nil
		}
		if err := verify(g.ref, r); err != nil {
			return false, err
		}
		evals.Add(1)
		return true, nil
	}

	hot := catalog[0]
	coldPool := catalog[1 : len(catalog)-1] // poison handled by its own worker
	h.workers("hot", cfg.hot, 0, func(rng *rand.Rand, op uint64) error {
		if _, err := check(rng, hot); err != nil {
			return err
		}
		// Page-drop churn on the hot grid: madvise under live traffic
		// must never change values (the pages just refault).
		if op%sched.dropEvery == 0 {
			srv.Grids().DropPages(hot.name) // best-effort; grid may be evicted
			drops.Add(1)
			if rb := srv.Grids().ResidentPayloadBytes(); rb < 0 {
				return fmt.Errorf("negative resident payload estimate %d", rb)
			}
		}
		return nil
	})
	h.workers("cold", cfg.cold, 1000, func(rng *rand.Rand, _ uint64) error {
		_, err := check(rng, coldPool[rng.Intn(len(coldPool))])
		return err
	})

	// Cap monitor: the size invariant must hold at every instant, not
	// just at the end.
	h.spawn(func() error {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.ctx.Done():
				return nil
			case <-tick.C:
				if s := st.Stats(); s.SizeBytes > capBytes {
					return fmt.Errorf("cache size %d exceeded cap %d mid-run", s.SizeBytes, capBytes)
				}
			}
		}
	})

	// Poison worker: until it heals the blob itself after its scheduled
	// attempt, every eval of the poisoned grid must fail and the corrupt
	// bytes must never enter the cache. After the heal the grid must
	// come back bit-exact, failing only on injected faults.
	healed, healedServed := false, false
	h.workers("poison", 1, 9000, func(rng *rand.Rand, attempt uint64) error {
		time.Sleep(time.Millisecond)
		if healed {
			served, err := check(rng, poison)
			healedServed = healedServed || served
			return err
		}
		r, err := c.eval(rng, poison.name, cfg.timeout)
		switch {
		case err != nil:
			return err
		case r.code == http.StatusOK:
			return fmt.Errorf("poisoned grid %s served before its blob healed", poison.name)
		case st.Contains(poison.key):
			return fmt.Errorf("corrupt remote blob for %s entered the cache", poison.name)
		}
		if attempt == sched.heal {
			// Atomic replace, so a fetch sees either blob whole.
			tmp := poisonBlob + ".heal"
			if err := os.WriteFile(tmp, goodBytes, 0o644); err != nil {
				return err
			}
			healed = true
			return os.Rename(tmp, poisonBlob)
		}
		return nil
	})
	h.wg.Wait()

	// Counter algebra at quiescence: every miss is one remote attempt,
	// and every attempt ended as exactly one of fill / uncached /
	// fetch failure / verify failure. The server's /metrics must agree
	// with the store's own counters exactly (no traffic is in flight).
	s := st.Stats()
	m, err := scrape(handler)
	if err != nil {
		h.fail(err)
	}
	err = h.end(srv.Close)
	fmt.Printf("  grids=%d capFiles=%d evals=%d tolerated=%d drops=%d healed=%v hits=%d misses=%d fills=%d evictions=%d uncached=%d fetchFail=%d verifyFail=%d GOMAXPROCS=%d\n",
		cfg.grids, capFiles, evals.Load(), tolerated.Load(), drops.Load(), healed, s.Hits, s.Misses, s.Fills, s.Evictions, s.Uncached, s.FetchFailures, s.VerifyFailures, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	if evals.Load() == 0 {
		return fmt.Errorf("no successful evaluations; chaos did not run")
	}
	if !healed || drops.Load() == 0 {
		return fmt.Errorf("the run ended before the blob healed or a page drop: the schedule did not run (raise -duration)")
	}
	if attempts := flaky.attempts(); s.Misses != attempts {
		return fmt.Errorf("store misses %d != remote attempts %d", s.Misses, attempts)
	} else if got := s.Fills + s.Uncached + s.FetchFailures + s.VerifyFailures; got != attempts {
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
	if !healedServed {
		return fmt.Errorf("poisoned grid never recovered after its blob healed")
	}
	for name, want := range map[string]uint64{
		"sgserve_store_hits":      s.Hits,
		"sgserve_store_misses":    s.Misses,
		"sgserve_store_fills":     s.Fills,
		"sgserve_store_evictions": s.Evictions,
	} {
		if got, err := m.need(name); err != nil {
			return err
		} else if uint64(got) != want {
			return fmt.Errorf("/metrics %s = %v, store says %d", name, got, want)
		}
	}
	fmt.Println("  PASS")
	return nil
}
