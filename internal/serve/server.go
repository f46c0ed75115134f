package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"compactsg"
	"compactsg/internal/obs"
	"compactsg/internal/serve/metrics"
	"compactsg/internal/store"
)

// Config tunes a Server. The zero value is usable; zero fields take
// the listed defaults.
type Config struct {
	// Workers is the size of the evaluation worker pool each loaded
	// grid uses for batch dispatch (compactsg.WithWorkers). Default 0
	// = auto: resolves to GOMAXPROCS per call, so one large
	// /v1/eval/batch saturates every core while a 1-CPU host stays on
	// the sequential kernels.
	Workers int
	// BlockSize is ignored: batch evaluation derives its cache-block
	// width from the grid's shape. The field remains so existing
	// configurations still compile.
	BlockSize int
	// MaxResident bounds how many grids stay loaded (LRU beyond it).
	// Default 8.
	MaxResident int
	// Coalesce enables micro-batching of /v1/eval requests: each runs
	// the same pipeline as /v1/eval/batch and /v1/eval/bin, except that
	// its kernel step joins the grid name's open micro-batch. When false
	// it evaluates at once as a one-point batch on its own handler
	// goroutine. /v1/eval/batch and /v1/eval/bin never coalesce.
	Coalesce bool
	// MaxBatch is the micro-batch size cap. Default 256.
	MaxBatch int
	// BatchWait is how long an open micro-batch waits for more
	// requests before dispatching. Default 2ms.
	BatchWait time.Duration
	// MaxBodyBytes caps request body size. Default 1 MiB.
	MaxBodyBytes int64
	// MaxBatchPoints caps the number of points in one /v1/eval/batch
	// or /v1/eval/bin request. Default 65536.
	MaxBatchPoints int
	// RequestTimeout bounds a request's grid lease and evaluation; the
	// kernel checks it between cache blocks. Default 10s.
	RequestTimeout time.Duration
	// TraceRing is how many recent request traces are retained for
	// GET /debug/traces. 0 takes the default (256); negative disables
	// tracing entirely — and with it the per-stage
	// sgserve_stage_seconds attribution, which is derived from spans.
	TraceRing int
	// TraceSample keeps every nth finished trace in the ring (1 = all,
	// the default). Spans and stage metrics cover every request
	// regardless; sampling bounds only ring publication.
	TraceSample int
	// ShardID, when non-empty, labels this server as one shard of a
	// sgproxy-fronted deployment: it is reported by /healthz?detail=1
	// and exported as sgserve_shard_info{shard_id="..."} so scrapes from
	// many shards can be told apart after aggregation.
	ShardID string
	// AccessLog, when non-nil, receives one structured line per request
	// (request ID, handler, grid, points, status, stage breakdown).
	AccessLog *slog.Logger
	// ErrorLog receives handler panic reports (message + stack).
	// Default slog.Default().
	ErrorLog *slog.Logger
	// Online configures the write path (observation-fed models with
	// refine-and-hot-swap); see OnlineConfig. Disabled by default.
	Online OnlineConfig
	// Store, when non-nil, backs the registry's cold-load path with a
	// tiered snapshot store (content-addressed local cache + remote
	// tier). Grids registered under a store: locator load through it,
	// and Swap publishes exported snapshots into it. The server also
	// exports sgserve_store_* gauges refreshed on every /metrics scrape.
	Store *store.Store
	// BlobDir, when non-empty, serves that directory as an HTTP blob
	// tier at /v1/blobs/{key} (GET/HEAD/PUT, uploads fully verified) —
	// the server half other nodes point -remote at.
	BlobDir string
}

func (c *Config) fill() {
	if c.Workers < 0 {
		c.Workers = 0 // auto (GOMAXPROCS)
	}
	if c.MaxResident < 1 {
		c.MaxResident = 8
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 256
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatchPoints < 1 {
		c.MaxBatchPoints = 65536
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.TraceSample < 1 {
		c.TraceSample = 1
	}
	if c.ErrorLog == nil {
		c.ErrorLog = slog.Default()
	}
	if c.Online.Enabled {
		c.Online.fill()
	}
}

// Server is the HTTP evaluation service: routes, grid registry,
// per-name coalescers and metrics. Create with New, mount Handler
// into an http.Server, and call Close on shutdown (after
// http.Server.Shutdown) to drain in-flight requests.
//
// Every eval endpoint runs one synchronous pipeline on its request
// goroutine (evaluate): admit, lease the grid, validate, run the
// kernel, release the lease. The lease is released by a plain defer
// once the kernel has returned, so a grid evicted mid-request stays
// mapped exactly as long as the request reads it.
//
// A coalesced /v1/eval differs only in its kernel step, which joins
// the open micro-batch of the grid name's coalescer. There is one
// coalescer per name, created on the name's first coalesced read and
// closed only by Close; swaps and evictions never touch it, because
// each batch leases the instance installed under the name when it
// dispatches and releases it once the kernel returns.
type Server struct {
	cfg    Config
	grids  *GridSet
	mux    *http.ServeMux
	front  *Front
	online *onlineSet // nil unless cfg.Online.Enabled

	mu       sync.Mutex
	batchers map[string]*batcher // per grid name; nil after Close
	closed   bool
	inflight sync.WaitGroup // evaluations admitted before Close

	// evalGate, when non-nil, runs right before the kernel, while the
	// request holds its lease and counts as in flight. Tests use it to
	// park an evaluation across a timeout, an eviction or Close. Set
	// before serving traffic.
	evalGate func(ctx context.Context, grid string)

	met serverMetrics
}

type serverMetrics struct {
	registry    *metrics.Registry
	batchSize   *metrics.Histogram
	points      *metrics.Counter
	resident    *metrics.Gauge
	loads       *metrics.Counter
	loadModes   *metrics.CounterVec
	loadFails   *metrics.Counter
	loadSecs    *metrics.Histogram
	loadWaits   *metrics.Counter
	evictions   *metrics.Counter
	batchersNow *metrics.Gauge
	drainsTotal *metrics.Counter
	openConns   *metrics.Gauge
	// Write-path metrics (observe/refine/hot-swap).
	observations *metrics.Counter
	refines      *metrics.Counter
	swaps        *metrics.Counter
	gridVersion  *metrics.GaugeVec
	// Tiered-store gauges, refreshed from store.Stats() on every
	// /metrics scrape (the metrics package is push-only); nil without a
	// store. residentBytes is always present.
	storeGauges   map[string]*metrics.Gauge
	residentBytes *metrics.Gauge
}

// New creates a Server. Register grid files with AddGrid before (or
// while) serving.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{cfg: cfg, batchers: make(map[string]*batcher)}
	s.grids = NewGridSet(cfg.MaxResident, compactsg.WithWorkers(cfg.Workers))
	s.grids.OnLoad = func(_ string, mode compactsg.LoadMode, took time.Duration) {
		s.met.loads.Inc()
		s.met.loadModes.With(mode.String()).Inc()
		s.met.loadSecs.Observe(took.Seconds())
	}
	s.grids.OnLoadFail = func(string, error) { s.met.loadFails.Inc() }
	s.grids.OnLoadWait = func(string) { s.met.loadWaits.Inc() }
	s.grids.OnEvict = func(string, *compactsg.Grid) { s.met.evictions.Inc() }
	s.grids.OnSwap = func(name string, version uint64) {
		s.met.swaps.Inc()
		s.met.gridVersion.With(name).Set(float64(version))
	}

	r := metrics.NewRegistry()
	s.met = serverMetrics{
		registry:    r,
		batchSize:   r.NewHistogram("sgserve_batch_size", "Points per dispatched evaluation batch (coalesced micro-batches and explicit batch requests).", metrics.DefSizeBuckets),
		points:      r.NewCounter("sgserve_points_evaluated_total", "Grid points evaluated."),
		resident:    r.NewGauge("sgserve_grids_resident", "Grids currently loaded in memory."),
		loads:       r.NewCounter("sgserve_grid_loads_total", "Grid loads from disk."),
		loadModes:   r.NewCounterVec("sgserve_grid_load_mode_total", "Successful grid loads by payload materialization: mmap (zero-copy snapshot mapping) or copy (decoded into the heap).", "mode"),
		loadFails:   r.NewCounter("sgserve_grid_load_failures_total", "Grid load attempts that failed (missing file, corruption, checksum mismatch, load hook error)."),
		loadSecs:    r.NewHistogram("sgserve_grid_load_seconds", "Wall time of grid file loads (read + decode), in seconds.", metrics.DefLoadBuckets),
		loadWaits:   r.NewCounter("sgserve_grid_load_waits_total", "Requests that piggybacked on another request's in-flight load of the same grid (singleflight followers)."),
		evictions:   r.NewCounter("sgserve_grid_evictions_total", "LRU grid evictions."),
		batchersNow: r.NewGauge("sgserve_batchers_active", "Micro-batch coalescers, one per grid name that has served a coalesced /v1/eval."),
		drainsTotal: r.NewCounter("sgserve_batcher_drains_total", "Coalescers drained and closed by server shutdown (swaps and evictions keep them, so this reads 0 while serving)."),
		openConns:   r.NewGauge("sgserve_open_connections", "TCP connections currently open on the server (accepted and not yet closed or hijacked); wire http.Server.ConnState to Server.ConnState to feed it."),

		observations: r.NewCounter("sgserve_observations_total", "Nodal observations applied to online adaptive models."),
		refines:      r.NewCounter("sgserve_refines_total", "Refinement rounds run on online adaptive models (swapped or not)."),
		swaps:        r.NewCounter("sgserve_grid_swaps_total", "Grid hot-swaps installed (a strictly newer version replacing the resident instance)."),
		gridVersion:  r.NewGaugeVec("sgserve_grid_version", "Installed hot-swap version per grid (absent for statically registered grids).", "grid"),
	}
	if cfg.ShardID != "" {
		r.NewGaugeVec("sgserve_shard_info",
			"Constant 1, labeled with this server's shard ID so per-shard scrapes stay distinguishable after aggregation.",
			"shard_id").With(cfg.ShardID).Set(1)
	}
	tracer := obs.New(cfg.TraceRing)
	tracer.SetSampleEvery(cfg.TraceSample)
	s.front = NewFront("sgserve", r, tracer, cfg.ErrorLog, cfg.AccessLog)
	s.met.residentBytes = r.NewGauge("sgserve_mapped_resident_bytes",
		"Estimated physical memory held by resident grid payloads (mincore over mmap'd snapshots; full size for copy loads). Refreshed at scrape.")
	if cfg.Store != nil {
		s.grids.SetStore(cfg.Store)
		s.grids.OnPublish = func(name, key string, err error) {
			if err != nil {
				cfg.ErrorLog.Warn("store publish failed", "grid", name, "err", err)
				return
			}
			cfg.ErrorLog.Info("snapshot published to store", "grid", name, "key", key)
		}
		s.met.storeGauges = make(map[string]*metrics.Gauge)
		for _, g := range []struct{ name, help string }{
			{"sgserve_store_hits", "Store cache hits (cold loads served from the local cache)."},
			{"sgserve_store_misses", "Store cache misses (cold loads that consulted the remote tier)."},
			{"sgserve_store_fills", "Objects fetched, verified and admitted into the local cache."},
			{"sgserve_store_evictions", "Cached objects evicted (whole-file LRU) to respect the cache cap."},
			{"sgserve_store_uncached", "Fetches served as uncached temp files because pinned objects filled the cap."},
			{"sgserve_store_fetch_failures", "Remote fetches that failed (transport error, 5xx, truncation, size cap)."},
			{"sgserve_store_verify_failures", "Fetched blobs rejected by checksum or content-address mismatch (never cached, never served)."},
			{"sgserve_store_fetch_bytes", "Total bytes downloaded from the remote tier."},
			{"sgserve_store_fetch_seconds", "Total wall time spent downloading from the remote tier."},
			{"sgserve_store_objects", "Objects currently in the local cache."},
			{"sgserve_store_size_bytes", "Bytes currently in the local cache (<= sgserve_store_cap_bytes when capped)."},
			{"sgserve_store_cap_bytes", "Configured local cache capacity in bytes (0 = unlimited)."},
		} {
			s.met.storeGauges[g.name] = r.NewGauge(g.name, g.help+" Refreshed at scrape.")
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.refreshStoreMetrics()
		r.Handler().ServeHTTP(w, req)
	}))
	if cfg.BlobDir != "" {
		bh := store.BlobHandler(cfg.BlobDir)
		mux.Handle("GET /v1/blobs/{key}", bh)
		mux.Handle("HEAD /v1/blobs/{key}", bh)
		mux.Handle("PUT /v1/blobs/{key}", bh)
	}
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.HandleFunc("GET /v1/grids", s.front.InstrumentJSON("grids", s.handleGrids))
	mux.HandleFunc("POST /v1/eval", s.front.InstrumentJSON("eval", s.handleEval))
	mux.HandleFunc("POST /v1/eval/batch", s.front.InstrumentJSON("batch", s.handleEvalBatch))
	mux.HandleFunc("POST /v1/eval/bin", s.front.Instrument("eval_bin", "bin", s.handleEvalBin))
	if cfg.Online.Enabled {
		s.online = newOnlineSet(s, cfg.Online)
		mux.HandleFunc("POST /v1/grids/{name}/observe", s.front.InstrumentJSON("observe", s.handleObserve))
		mux.HandleFunc("POST /v1/grids/{name}/refine", s.front.InstrumentJSON("refine", s.handleRefine))
	}
	s.mux = mux
	return s
}

// handleHealthz answers liveness probes. The default body stays the
// plain "ok" line (scripts grep for it); ?detail=1 switches to a JSON
// document with the shard identity and registry occupancy that
// sgproxy operators read when deciding which shard is misbehaving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("detail") == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	versions := s.grids.Versions()
	if len(versions) == 0 {
		versions = nil
	}
	s.front.WriteJSON(w, http.StatusOK, struct {
		Status   string            `json:"status"`
		ShardID  string            `json:"shard_id,omitempty"`
		Resident int               `json:"resident"`
		Grids    int               `json:"grids"`
		Online   bool              `json:"online,omitempty"`
		Versions map[string]uint64 `json:"versions,omitempty"`
	}{
		Status:   "ok",
		ShardID:  s.cfg.ShardID,
		Resident: s.grids.ResidentCount(),
		Grids:    len(s.grids.Info()),
		Online:   s.online != nil,
		Versions: versions,
	})
}

// ConnState maintains the sgserve_open_connections gauge; wire it as
// http.Server.ConnState. Hijacked connections leave the count — the
// server no longer owns them — and net/http fires StateClosed only for
// connections it still owns, so the pairing stays balanced.
func (s *Server) ConnState(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		s.met.openConns.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.met.openConns.Add(-1)
	}
}

// AddGrid registers a compressed grid under name, located by path: a
// file path, or "store:" plus an SGC2 content address that loads
// through the tiered store (requires Config.Store). See GridSet.Add.
func (s *Server) AddGrid(name, path string) error { return s.grids.Add(name, path) }

// refreshStoreMetrics copies the store counters, the resident grid
// count and the resident-page estimate into their gauges; runs on every
// /metrics scrape.
func (s *Server) refreshStoreMetrics() {
	s.met.resident.Set(float64(s.grids.ResidentCount()))
	s.met.residentBytes.Set(float64(s.grids.ResidentPayloadBytes()))
	if s.met.storeGauges == nil {
		return
	}
	st := s.cfg.Store.Stats()
	for name, v := range map[string]float64{
		"sgserve_store_hits":            float64(st.Hits),
		"sgserve_store_misses":          float64(st.Misses),
		"sgserve_store_fills":           float64(st.Fills),
		"sgserve_store_evictions":       float64(st.Evictions),
		"sgserve_store_uncached":        float64(st.Uncached),
		"sgserve_store_fetch_failures":  float64(st.FetchFailures),
		"sgserve_store_verify_failures": float64(st.VerifyFailures),
		"sgserve_store_fetch_bytes":     float64(st.FetchBytes),
		"sgserve_store_fetch_seconds":   st.FetchSeconds,
		"sgserve_store_objects":         float64(st.Objects),
		"sgserve_store_size_bytes":      float64(st.SizeBytes),
		"sgserve_store_cap_bytes":       float64(st.CapBytes),
	} {
		s.met.storeGauges[name].Set(v)
	}
}

// Preload eagerly loads registered grids up to the resident bound.
// Per-grid failures do not abort the pass; they come back joined.
func (s *Server) Preload() error { return s.grids.Preload() }

// Grids exposes the registry (read-only use).
func (s *Server) Grids() *GridSet { return s.grids }

// Metrics exposes the metrics registry (for embedding in other muxes).
func (s *Server) Metrics() *metrics.Registry { return s.met.registry }

// Tracer exposes the request tracer (for tests and in-process
// harnesses like sgstress; HTTP consumers use GET /debug/traces).
func (s *Server) Tracer() *obs.Tracer { return s.front.tracer }

// Handler returns the routing handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Close refuses new evaluations with ErrClosed (503), stops the online
// refiner, dispatches every coalescer's open batch at once and closes
// it, waits for the evaluations already admitted to answer, then purges
// the grid registry so no grid (and no snapshot file mapping) outlives
// the server. Call it after http.Server.Shutdown so admitted requests
// still get their values. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	bs := s.batchers
	s.batchers = nil
	s.met.batchersNow.Set(0)
	s.mu.Unlock()
	if first && s.online != nil {
		s.online.close()
	}
	for _, b := range bs {
		b.close()
		s.met.drainsTotal.Inc()
	}
	s.inflight.Wait()
	s.grids.Purge()
	return nil
}

// admit counts an evaluation as in flight, or returns ErrClosed once
// Close has begun. Every admitted evaluation must call s.inflight.Done.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

// batcherFor returns name's coalescer, creating it on the name's first
// coalesced read, or ErrClosed once Close has begun.
func (s *Server) batcherFor(name string) (*batcher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	b := s.batchers[name]
	if b == nil {
		b = newBatcher(s.evalLatest(name), s.cfg.MaxBatch, s.cfg.BatchWait, func(n int) {
			s.met.batchSize.Observe(float64(n))
			s.met.points.Add(uint64(n))
		})
		s.batchers[name] = b
		s.met.batchersNow.Set(float64(len(s.batchers)))
	}
	return b, nil
}

// evalLatest is the kernel of name's coalescer. Each batch leases the
// instance installed under name when it dispatches, so a read answers
// from a version installed between its send and its reply, and
// releases the lease once the kernel returns. A swap since the calls
// were validated may have changed the grid's dimension; a point that no
// longer fits gets a 400, and the batcher keeps that error to its own
// call.
func (s *Server) evalLatest(name string) evalFunc {
	return func(xs [][]float64, out []float64) ([]float64, error) {
		// No one caller's context bounds a batch that answers many; a
		// cold load it waits on always runs to completion.
		lease, err := s.grids.Acquire(context.Background(), name)
		if err != nil {
			return nil, err
		}
		defer lease.Release()
		g := lease.Grid()
		for _, x := range xs {
			if err := validatePoint(x, g.Dim(), 0); err != nil {
				return nil, err
			}
		}
		return g.EvaluateBatch(xs, out)
	}
}

// ---------------------------------------------------------------------
// handlers

// EvalRequest is the JSON body of POST /v1/eval on sgserve and sgproxy.
type EvalRequest struct {
	Grid  string    `json:"grid"`
	Point []float64 `json:"point"`
}

// BatchRequest is the JSON body of POST /v1/eval/batch on both.
type BatchRequest struct {
	Grid   string      `json:"grid"`
	Points [][]float64 `json:"points"`
}

type evalResponse struct {
	Value float64 `json:"value"`
}

type batchResponse struct {
	Values []float64 `json:"values"`
}

type gridsResponse struct {
	Grids []GridInfo `json:"grids"`
}

// resolveGrid fills in the default grid name when exactly one grid is
// registered and the request omitted it.
func (s *Server) resolveGrid(name string) (string, error) {
	if name != "" {
		return name, nil
	}
	names := s.grids.Names()
	if len(names) == 1 {
		return names[0], nil
	}
	return "", Errorf(http.StatusBadRequest, "request must name a grid (%d registered)", len(names))
}

// validatePoint checks dimensionality and the [0,1]^d domain.
func validatePoint(x []float64, dim int, k int) error {
	if len(x) != dim {
		return Errorf(http.StatusBadRequest, "point %d has %d coordinates, grid has %d dimensions", k, len(x), dim)
	}
	for t, v := range x {
		if v < 0 || v > 1 || v != v { // v != v catches NaN
			return Errorf(http.StatusBadRequest, "point %d coordinate %d = %g outside the domain [0,1]", k, t, v)
		}
	}
	return nil
}

func (s *Server) handleGrids(_ *http.Request) (any, error) {
	return gridsResponse{Grids: s.grids.Info()}, nil
}

func (s *Server) handleEval(r *http.Request) (any, error) {
	var req EvalRequest
	if err := DecodeJSON(r, s.cfg.MaxBodyBytes, &req); err != nil {
		return nil, err
	}
	name, err := s.resolveGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 1)
	if err := s.evaluate(r.Context(), name, [][]float64{req.Point}, out, s.cfg.Coalesce); err != nil {
		return nil, err
	}
	return evalResponse{Value: out[0]}, nil
}

func (s *Server) handleEvalBatch(r *http.Request) (any, error) {
	var req BatchRequest
	if err := DecodeJSON(r, s.cfg.MaxBodyBytes, &req); err != nil {
		return nil, err
	}
	name, err := s.resolveGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(req.Points))
	if err := s.evaluate(r.Context(), name, req.Points, out, false); err != nil {
		return nil, err
	}
	return batchResponse{Values: out}, nil
}

// evaluate is the pipeline behind every eval endpoint, which differ
// only in how they decode pts and encode out. It admits the request
// (ErrClosed once Close has begun), caps its size, leases the grid,
// validates the points and runs the kernel into out, all on the calling
// goroutine. The request timeout stops the kernel at its next
// cache-block boundary, and the lease is released only after the
// kernel has returned. With coalesce (a single point from /v1/eval),
// the kernel step is a submit to the name's coalescer instead, which
// records the queue wait, dispatch, eval and batch size itself.
func (s *Server) evaluate(ctx context.Context, name string, pts [][]float64, out []float64, coalesce bool) error {
	sp := obs.FromContext(ctx)
	sp.SetGrid(name)
	sp.SetPoints(len(pts))
	if err := s.admit(); err != nil {
		return err
	}
	defer s.inflight.Done()

	if len(pts) > s.cfg.MaxBatchPoints {
		return Errorf(http.StatusRequestEntityTooLarge,
			"batch of %d points exceeds the per-request cap of %d", len(pts), s.cfg.MaxBatchPoints)
	}
	if len(pts) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	lease, err := s.grids.Acquire(ctx, name)
	if err != nil {
		return err
	}
	defer lease.Release()
	g := lease.Grid()
	sp.Begin(obs.StageValidate)
	for k, x := range pts {
		if err := validatePoint(x, g.Dim(), k); err != nil {
			sp.End(obs.StageValidate)
			return err
		}
	}
	sp.End(obs.StageValidate)
	if s.evalGate != nil {
		s.evalGate(ctx, name)
	}
	if coalesce {
		b, err := s.batcherFor(name)
		if err != nil {
			return err
		}
		out[0], err = b.submit(ctx, pts[0])
		return err
	}
	sp.Begin(obs.StageEval)
	_, err = g.EvaluateBatchContext(ctx, pts, out)
	sp.End(obs.StageEval)
	if err != nil {
		return err
	}
	sp.SetBatchSize(len(pts))
	s.met.batchSize.Observe(float64(len(pts)))
	s.met.points.Add(uint64(len(pts)))
	return nil
}
