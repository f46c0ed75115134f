// Command sgserve is the batched sparse-grid evaluation server: it
// loads compressed .sg/.sgs grids into an LRU-bounded registry and
// serves JSON evaluation requests over HTTP, coalescing concurrent
// single-point requests into micro-batches dispatched to
// EvaluateBatch (the paper's batched decompression path).
//
//	sgserve field.sg                              # name = "field"
//	sgserve -grid vol=vol.sg -grid rate=rate.sgs  # explicit names
//	sgserve -addr :9000 -workers 4 field.sg
//
// Endpoints:
//
//	POST /v1/eval        {"grid":"field","point":[0.5,0.25]}   → {"value":…}
//	POST /v1/eval/batch  {"grid":"field","points":[[…],[…]]}   → {"values":[…]}
//	POST /v1/eval/bin    the same batch as little-endian float64 frames
//	GET  /v1/grids       registered grids, shapes and versions
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   recent request traces with per-stage timings (JSON)
//	GET  /debug/pprof/*  runtime profiles (with -pprof)
//	GET/PUT /v1/blobs/{key}  content-addressed snapshot blobs (with -blob-dir)
//
// With -store-dir the registry's cold loads go through a tiered
// snapshot store: a size-capped content-addressed cache (-store-cap)
// over a remote blob tier (-remote, an HTTP base URL or directory).
// Grids registered as -grid name=store:KEY are fetched by SGC2
// content address on first use, so the catalog a node can serve is no
// longer bounded by its local disk:
//
//	sgserve -store-dir /nvme/cache -store-cap 64000000000 \
//	        -remote http://blobs:8177/v1/blobs -grid vol=store:8f3a...
//
// With -online, grids can also be GROWN at runtime from observed
// function values (adaptive sparse-grid refinement, PAPER.md §5):
//
//	POST /v1/grids/{name}/observe  {"points":[[…]],"values":[…]} → ingest observations
//	POST /v1/grids/{name}/refine   {}                            → refine, snapshot, hot-swap
//
// Each refine exports the model to a compact snapshot under
// -snapshot-dir and atomically hot-swaps it into the registry under a
// monotonically increasing version: in-flight batches finish on the
// old version, which unmaps after its last lease releases.
// -refine-interval additionally runs the refine step on a timer for
// every model with unprocessed observations.
//
// Observability: every request gets a span with per-stage timings
// (decode, validate, queue_wait, dispatch, eval, encode, plus cold
// load/load_wait); the last -trace-ring spans are retained for
// /debug/traces, the stage split is exported as
// sgserve_stage_seconds{stage=...}, and -access-log emits one
// structured JSON line per request on stderr.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting connections, waits for running requests, and flushes any
// open micro-batch so no accepted request is dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"compactsg/internal/serve"
	"compactsg/internal/serve/middleware"
	"compactsg/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sgserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sgserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8177", "listen address")
	workers := fs.Int("workers", 0, "evaluation worker pool size per grid (0 = auto: GOMAXPROCS)")
	maxGrids := fs.Int("max-grids", 8, "max grids resident in memory (LRU beyond)")
	noCoalesce := fs.Bool("no-coalesce", false, "disable micro-batching: evaluate each /v1/eval on its own goroutine")
	maxBatch := fs.Int("max-batch", 256, "micro-batch size cap for coalesced /v1/eval")
	batchWait := fs.Duration("batch-wait", 2*time.Millisecond, "max time an open micro-batch waits for more requests")
	maxBody := fs.Int64("max-body", 1<<20, "max request body bytes")
	maxPoints := fs.Int("max-points", 65536, "max points per /v1/eval/batch or /v1/eval/bin request")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request evaluation timeout")
	pprofOn := fs.Bool("pprof", false, "expose runtime profiles at /debug/pprof/")
	accessLog := fs.Bool("access-log", false, "emit one structured JSON log line per request on stderr")
	traceRing := fs.Int("trace-ring", 256, "recent request traces retained for /debug/traces (0 disables tracing)")
	traceSample := fs.Int("trace-sample", 1, "keep every nth trace in the ring (1 = all)")
	apiKeys := fs.String("api-keys", "", "API key file (one name:key or bare key per line); enables authentication")
	apiKeyEnv := fs.String("api-key-env", "", "environment variable holding comma-separated name:key API keys; enables authentication")
	rateLimit := fs.Float64("rate-limit", 0, "per-caller request rate cap in req/s (0 = unlimited); keyed by API-key name, else client IP")
	rateBurst := fs.Int("rate-burst", 0, "rate-limit burst capacity (0 = 2×rate, min 1)")
	trustedProxies := fs.String("trusted-proxies", "", "comma-separated CIDRs whose X-Forwarded-For / X-Request-Id headers are trusted")
	shardID := fs.String("shard-id", "", "shard identity when fronted by sgproxy (reported by /healthz?detail=1 and sgserve_shard_info)")
	online := fs.Bool("online", false, "enable online refinement: POST /v1/grids/{name}/observe + /refine grow grids at runtime")
	onlineInitLevel := fs.Int("online-init-level", 2, "initial regular level seeded into each online model")
	onlineMaxLevel := fs.Int("online-max-level", 8, "refinement level cap per online model")
	onlineEps := fs.Float64("online-refine-eps", 1e-3, "surplus threshold driving online refinement")
	onlineRefineMax := fs.Int("online-refine-max", 1024, "max points added per refine step")
	onlineMaxPoints := fs.Int("online-max-points", 1<<20, "total point cap per online model (observe answers 507 beyond); also caps the model's level so its regular grid, the largest snapshot a refine writes, holds at most this many points")
	refineInterval := fs.Duration("refine-interval", 0, "background refine+hot-swap period for dirty online models (0 = only explicit POST /refine)")
	snapshotDir := fs.String("snapshot-dir", "", "directory for online model snapshots (default: per-process dir under $TMPDIR)")
	corsOrigin := fs.String("cors-origin", "", "comma-separated allowed CORS origins (\"*\" allows any; empty disables CORS)")
	storeDir := fs.String("store-dir", "", "local snapshot cache directory; enables the tiered store (-grid name=store:KEY, remote fetch on miss)")
	storeCap := fs.Int64("store-cap", 0, "cache capacity in bytes for -store-dir (0 = unlimited); LRU whole-file eviction beyond it")
	remote := fs.String("remote", "", "remote blob tier behind the cache: http(s) base URL (e.g. http://host:8177/v1/blobs) or a local directory")
	blobDir := fs.String("blob-dir", "", "serve this directory as an HTTP blob tier at /v1/blobs/{key} (the remote other nodes point -remote at)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a full request including the body")
	writeTimeout := fs.Duration("write-timeout", 0, "max time to write a response (0 = request timeout + 5s slack)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "max keep-alive idle time per connection")
	var named []string
	fs.Func("grid", "grid as name=path or name=store:KEY (repeatable); bare arguments use the file basename", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("-grid wants name=path, got %q", v)
		}
		named = append(named, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(named) == 0 && fs.NArg() == 0 && !*online && *blobDir == "" {
		return errors.New("no grids: pass .sg/.sgs files or -grid name=path (or -online to grow grids from observations, or -blob-dir to serve blobs only)")
	}

	// Tiered snapshot store: content-addressed local cache (optionally
	// size-capped) over a remote blob tier.
	var st *store.Store
	if *storeDir != "" {
		var rem store.Remote
		if *remote != "" {
			if strings.HasPrefix(*remote, "http://") || strings.HasPrefix(*remote, "https://") {
				rem = &store.HTTPRemote{Base: strings.TrimRight(*remote, "/")}
			} else {
				rem = &store.FSRemote{Dir: *remote}
			}
		}
		var err error
		if st, err = store.Open(store.Config{Dir: *storeDir, CapBytes: *storeCap, Remote: rem}); err != nil {
			return fmt.Errorf("-store-dir: %w", err)
		}
		defer st.Close()
	} else if *remote != "" {
		return errors.New("-remote requires -store-dir")
	}

	cfg := serve.Config{
		Workers:        *workers,
		MaxResident:    *maxGrids,
		Coalesce:       !*noCoalesce,
		MaxBatch:       *maxBatch,
		BatchWait:      *batchWait,
		MaxBodyBytes:   *maxBody,
		MaxBatchPoints: *maxPoints,
		RequestTimeout: *timeout,
		TraceSample:    *traceSample,
		ShardID:        *shardID,
		ErrorLog:       slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		Online: serve.OnlineConfig{
			Enabled:     *online,
			InitLevel:   *onlineInitLevel,
			MaxLevel:    *onlineMaxLevel,
			RefineEps:   *onlineEps,
			RefineMax:   *onlineRefineMax,
			MaxPoints:   *onlineMaxPoints,
			Interval:    *refineInterval,
			SnapshotDir: *snapshotDir,
		},
	}
	cfg.Store = st
	cfg.BlobDir = *blobDir
	// Config treats 0 as "default ring"; the flag treats 0 as "off".
	if *traceRing > 0 {
		cfg.TraceRing = *traceRing
	} else {
		cfg.TraceRing = -1
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := serve.New(cfg)
	defer srv.Close()

	for _, nv := range named {
		name, path, _ := strings.Cut(nv, "=")
		if err := srv.AddGrid(name, path); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".sg"), ".sgs")
		if err := srv.AddGrid(name, path); err != nil {
			return err
		}
	}
	// Preload no longer aborts on the first broken grid file: healthy
	// grids still come up warm, broken ones stay registered and report
	// their error on first use. Refuse to start only when *nothing*
	// could be loaded.
	if err := srv.Preload(); err != nil {
		if srv.Grids().ResidentCount() == 0 {
			return fmt.Errorf("no grid could be loaded: %w", err)
		}
		log.Printf("preload: %v (continuing; broken grids will answer 500 until fixed)", err)
	}
	for _, gi := range srv.Grids().Info() {
		if gi.Resident {
			log.Printf("grid %q: d=%d level=%d, %d points", gi.Name, gi.Dim, gi.Level, gi.Points)
		} else {
			log.Printf("grid %q: registered (not resident)", gi.Name)
		}
	}

	if st != nil {
		stats := st.Stats()
		log.Printf("tiered store: dir=%s cap=%d bytes, %d cached objects (%d bytes), remote=%q",
			*storeDir, *storeCap, stats.Objects, stats.SizeBytes, *remote)
	}
	if *blobDir != "" {
		log.Printf("blob tier: serving %s at /v1/blobs/{key}", *blobDir)
	}

	if *online {
		dir := *snapshotDir
		if dir == "" {
			dir = "(per-process tmp dir)"
		}
		log.Printf("online refinement: init-level=%d max-level=%d eps=%g interval=%v snapshots=%s",
			*onlineInitLevel, *onlineMaxLevel, *onlineEps, *refineInterval, dir)
	}

	handler := srv.Handler()

	// Middleware chain, outermost first: RequestID → RealIP → CORS →
	// Auth → RateLimit → mux. CORS sits above Auth so browser
	// preflights (sent without credentials) succeed; RateLimit sits
	// below Auth so authenticated callers are limited by key name, not
	// by whatever IP their proxy presents.
	proxies, err := middleware.ParseProxies(*trustedProxies)
	if err != nil {
		return fmt.Errorf("-trusted-proxies: %w", err)
	}
	var keys *middleware.Keyring
	if *apiKeys != "" {
		if keys, err = middleware.LoadKeys(*apiKeys); err != nil {
			return err
		}
	} else if *apiKeyEnv != "" {
		if keys, err = middleware.KeysFromEnv(*apiKeyEnv); err != nil {
			return err
		}
		if keys == nil {
			return fmt.Errorf("-api-key-env: $%s is empty", *apiKeyEnv)
		}
	}
	chain := []middleware.Middleware{
		middleware.RequestID(proxies),
		middleware.RealIP(proxies),
	}
	if *corsOrigin != "" {
		chain = append(chain, middleware.CORS(strings.Split(*corsOrigin, ",")))
	}
	if keys != nil {
		chain = append(chain, middleware.Auth(keys, "/healthz"))
		log.Printf("auth: %d API key(s) loaded", keys.Len())
	}
	if *rateLimit > 0 {
		burst := *rateBurst
		if burst <= 0 {
			burst = max(int(2**rateLimit), 1)
		}
		chain = append(chain, middleware.RateLimit(middleware.NewLimiter(*rateLimit, burst), "/healthz"))
		log.Printf("rate limit: %.3g req/s per caller, burst %d", *rateLimit, burst)
	}
	if *pprofOn {
		// An explicit mux (not the net/http/pprof init side effects on
		// DefaultServeMux) so the profiles are opt-in per server. Mounted
		// under the middleware chain below, so -api-keys covers the
		// profiles too.
		root := http.NewServeMux()
		root.Handle("/", handler)
		root.HandleFunc("GET /debug/pprof/", pprof.Index)
		root.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		root.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = root
	}
	handler = middleware.Chain(handler, chain...)

	// WriteTimeout must outlast the request timeout (plus encode/flush
	// slack), or the server would cut off responses the handler was
	// still entitled to produce.
	wt := *writeTimeout
	if wt <= 0 {
		wt = *timeout + 5*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      wt,
		IdleTimeout:       *idleTimeout,
		ConnState:         srv.ConnState, // feeds sgserve_open_connections
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		resolved := *workers
		if resolved == 0 {
			resolved = runtime.GOMAXPROCS(0)
		}
		log.Printf("listening on %s (coalesce=%v workers=%d trace-ring=%d pprof=%v)",
			*addr, !*noCoalesce, resolved, max(*traceRing, 0), *pprofOn)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down: draining connections and open batches")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	return srv.Close()
}
