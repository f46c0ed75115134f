// Command sgstress is the race-hunting chaos harness for the serving
// layer. Its default mode stands up an in-process Server over more
// grids than the resident bound allows, then hammers it from three
// worker populations at once:
//
//   - hot workers pin one grid with a continuous stream of eval
//     requests (the latency victims if anything blocks the fast path),
//   - cold workers cycle through every other grid, forcing constant
//     LRU eviction, reload and batcher drain churn, and register a
//     brand-new grid file mid-flight every -churn cold requests,
//   - cancellers fire requests with microsecond deadlines so contexts
//     die before, during and after enqueue into open micro-batches.
//
// Loads can be artificially inflated (-load-delay) to make
// head-of-line blocking measurable: before the singleflight rework, a
// cold load held the registry mutex through the file read, so every
// request — resident or not — queued behind it. -shard-chaos,
// -swap-chaos and -store-chaos run the other scenarios on the same
// harness (harness.go).
//
// Every value is checked bit for bit against a reference grid; at the
// end the harness closes the server and verifies no goroutine or
// snapshot mapping leaked. It exits non-zero on any wrong value,
// unexpected status, leak, or (with -assert-hot-p50) a hot-path median
// latency above the bound. Every request stream and fault point is
// drawn from -seed and counted in requests, so the first line's seed
// replays a failure. Run it under -race in CI:
//
//	go run -race ./cmd/sgstress -duration 2s
//	go run -race ./cmd/sgstress -duration 5s -load-delay 25ms -assert-hot-p50 20ms
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/obs"
	"compactsg/internal/serve"
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
	churn      int
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
	fs.IntVar(&cfg.churn, "churn", 25, "cold requests between mid-flight grid registrations (0 = off)")
	fs.DurationVar(&cfg.loadDelay, "load-delay", 20*time.Millisecond, "artificial extra latency per grid load (0 = off)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every worker's request stream and of the fault schedule; a failing run prints it for replay")
	fs.DurationVar(&cfg.assertP50, "assert-hot-p50", 0, "fail if hot-grid MEDIAN latency exceeds this bound (0 = report only)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 64, "micro-batch size cap")
	fs.DurationVar(&cfg.batchWait, "batch-wait", time.Millisecond, "micro-batch linger")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request timeout for hot/cold workers")
	fs.IntVar(&cfg.workers, "workers", 2, "evaluation worker pool per grid (0 = auto: GOMAXPROCS)")
	fs.StringVar(&cfg.protocol, "protocol", "mix", "eval wire protocol in every mode: json (JSON points and batches), bin (binary frames) or mix (each request picks one of the three)")
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
	mode := stress
	switch {
	case cfg.storeChaos:
		if cfg.grids < 4 {
			return fmt.Errorf("-store-chaos needs at least 4 grids (hot + cold pool + poisoned)")
		}
		mode = storeChaos
	case cfg.swapChaos:
		mode = swapChaos
	case cfg.shardChaos:
		if cfg.shardCount < 3 {
			return fmt.Errorf("-shard-chaos needs at least 3 shards (one dies mid-run)")
		}
		if cfg.replicas < 2 {
			return fmt.Errorf("-shard-chaos needs -replicas >= 2 (failover must have somewhere to go)")
		}
		mode = shardChaos
	}
	if err := mode(cfg); err != nil {
		return fmt.Errorf("seed %d: %w", cfg.seed, err)
	}
	return nil
}

// pool is the cold grid set; churn appends to it while cold workers
// and cancellers draw from it.
type pool struct {
	mu    sync.RWMutex
	files []gridFile
}

func (p *pool) add(g gridFile) {
	p.mu.Lock()
	p.files = append(p.files, g)
	p.mu.Unlock()
}

func (p *pool) pick(rng *rand.Rand) gridFile {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.files[rng.Intn(len(p.files))]
}

// gridFile is one grid file a run serves and its in-memory reference.
type gridFile struct {
	name, path string
	ref        *compactsg.Grid
}

// writeGrids writes the run's -grids grid files g0, g1, … into dir.
func writeGrids(dir string, cfg config) ([]gridFile, error) {
	files := make([]gridFile, cfg.grids)
	for k := range files {
		var err error
		if files[k], err = writeGrid(dir, fmt.Sprintf("g%d", k), cfg, float64(k+1)); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// writeGrid writes grid name, bumps scaled by scale, into dir.
func writeGrid(dir, name string, cfg config, scale float64) (gridFile, error) {
	g, err := compactsg.New(cfg.dim, cfg.level)
	if err != nil {
		return gridFile{}, err
	}
	g.Compress(func(x []float64) float64 { return scale * bumps(x) })
	path := filepath.Join(dir, name+".sg")
	f, err := os.Create(path)
	if err != nil {
		return gridFile{}, err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return gridFile{}, err
	}
	return gridFile{name, path, g}, f.Close()
}

// bumps is the product of 4x(1-x) over x's coordinates: the function
// every mode's grids interpolate.
func bumps(x []float64) float64 {
	p := 1.0
	for _, v := range x {
		p *= 4 * v * (1 - v)
	}
	return p
}

// serveConfig is the server configuration the flags give every mode.
func serveConfig(cfg config) serve.Config {
	return serve.Config{
		Workers:        cfg.workers,
		MaxResident:    cfg.resident,
		Coalesce:       true,
		MaxBatch:       cfg.maxBatch,
		BatchWait:      cfg.batchWait,
		RequestTimeout: cfg.timeout,
	}
}

func stress(cfg config) error {
	h := newHarness(cfg, "default", fmt.Sprintf("a grid registered after every %d cold requests", cfg.churn))
	dir, err := os.MkdirTemp("", "sgstress")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv := serve.New(serveConfig(cfg))
	if cfg.loadDelay > 0 {
		srv.Grids().LoadHook = func(string) error {
			time.Sleep(cfg.loadDelay)
			return nil
		}
	}

	files, err := writeGrids(dir, cfg)
	if err != nil {
		return err
	}
	for _, g := range files {
		if err := srv.AddGrid(g.name, g.path); err != nil {
			return err
		}
	}
	hot := files[0]
	p := &pool{files: append([]gridFile(nil), files[1:]...)} // the hot grid never churns

	hotStats, coldStats, cancelStats := newStats("hot"), newStats("cold"), newStats("cancel")
	var cancelled, churned atomic.Uint64
	handler := srv.Handler()
	c := client{h: handler, protocol: cfg.protocol, dim: cfg.dim}
	// churn registers a brand-new grid file mid-flight.
	churn := func() error {
		k := churned.Add(1)
		g, err := writeGrid(dir, fmt.Sprintf("churn%d", k), cfg, 100+float64(k))
		if err == nil {
			err = srv.AddGrid(g.name, g.path)
		}
		if err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		p.add(g)
		return nil
	}

	h.workers("hot", cfg.hot, 0, func(rng *rand.Rand, _ uint64) error {
		r, err := c.eval(rng, hot.name, cfg.timeout)
		if err != nil {
			return err
		}
		hotStats.observe(r.took)
		return verify(hot.ref, r)
	})
	h.workers("cold", cfg.cold, 1000, func(rng *rand.Rand, op uint64) error {
		g := p.pick(rng)
		r, err := c.eval(rng, g.name, cfg.timeout)
		if err != nil {
			return err
		}
		coldStats.observe(r.took)
		if err := verify(g.ref, r); err != nil {
			return err
		}
		if cfg.churn > 0 && op%uint64(cfg.churn) == 0 {
			return churn()
		}
		return nil
	})
	h.workers("canceller", cfg.cancellers, 2000, func(rng *rand.Rand, _ uint64) error {
		g := p.pick(rng)
		// Deadlines from 0 to ~2× the batch linger: contexts die before
		// enqueue, inside the open batch, after flush, and between the
		// kernel's cache blocks while the request holds its lease and
		// its pooled frame.
		r, err := c.eval(rng, g.name, time.Duration(rng.Int63n(int64(2*cfg.batchWait)+1)))
		if err != nil {
			return err
		}
		cancelStats.observe(r.took)
		if r.code == 499 || r.code == http.StatusServiceUnavailable {
			cancelled.Add(1)
			return nil
		}
		return verify(g.ref, r)
	})
	h.wg.Wait()

	// Final probes while the server is still up.
	for _, url := range []string{"/v1/grids", "/healthz"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			h.fail(fmt.Errorf("GET %s after stress: status %d", url, rec.Code))
		}
	}
	m, err := scrape(handler)
	if err != nil {
		h.fail(err)
	}
	trec := httptest.NewRecorder()
	handler.ServeHTTP(trec, httptest.NewRequest("GET", "/debug/traces", nil))
	stageLine := summarizeTraces(trec.Body.Bytes())

	err = h.end(srv.Close)
	fmt.Printf("  %d grids (+%d churned in), resident bound %d, %s traffic, load-delay=%s, GOMAXPROCS=%d\n",
		cfg.grids, churned.Load(), cfg.resident, cfg.duration, cfg.loadDelay, runtime.GOMAXPROCS(0))
	fmt.Printf("  hot  %s: %s\n", hot.name, hotStats.line())
	fmt.Printf("  cold grids: %s\n", coldStats.line())
	fmt.Printf("  cancellers: %s, %d cancelled/timed out\n", cancelStats.line(), cancelled.Load())
	fmt.Printf("  server: loads=%v load-waits=%v evictions=%v drains=%v resident=%v panics=%v\n",
		m["sgserve_grid_loads_total"], m["sgserve_grid_load_waits_total"], m["sgserve_grid_evictions_total"],
		m["sgserve_batcher_drains_total"], m["sgserve_grids_resident"], m["sgserve_panics_total"])
	fmt.Printf("  loads by mode: mmap=%v copy=%v, failures=%v\n",
		m[`sgserve_grid_load_mode_total{mode="mmap"}`], m[`sgserve_grid_load_mode_total{mode="copy"}`],
		m["sgserve_grid_load_failures_total"])
	if stageLine != "" {
		fmt.Printf("  stages: %s\n", stageLine)
	}
	if err != nil {
		return err
	}
	if hotStats.n.Load() == 0 || coldStats.n.Load() == 0 {
		return fmt.Errorf("a worker population made no requests; stress did not run")
	}
	if cfg.churn > 0 && churned.Load() == 0 {
		return fmt.Errorf("no grid was churned in: the schedule did not run (raise -duration or lower -churn)")
	}
	if ev, err := m.need("sgserve_grid_evictions_total"); err != nil {
		return err
	} else if ev == 0 {
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
