package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/obs"
	"compactsg/internal/serve"
	"compactsg/internal/serve/metrics"
)

// Config tunes a Proxy. The zero value is usable; zero fields take the
// listed defaults.
type Config struct {
	// Replicas is how many distinct shards each grid name is assigned
	// to (the primary plus failover candidates). Default 2, clamped to
	// the shard count.
	Replicas int
	// VirtualNodes per shard on the hash ring. Default
	// DefaultVirtualNodes.
	VirtualNodes int
	// Retries is how many additional shards are tried after the first
	// attempt fails (evaluations are idempotent, so replica retry is
	// always safe). Zero means the default, Replicas-1; to disable
	// retries entirely pass a negative value.
	Retries int
	// UpstreamTimeout bounds one upstream attempt. Default 10s.
	UpstreamTimeout time.Duration
	// HealthInterval is the /healthz polling period. Default 250ms.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe. Default 1s.
	HealthTimeout time.Duration
	// BreakerFails is how many consecutive request failures open a
	// shard's circuit breaker. Default 3.
	BreakerFails int
	// BreakerCooloff is how long an open breaker keeps the shard out
	// of the candidate order before the next probe request. Default
	// 500ms.
	BreakerCooloff time.Duration
	// MaxBodyBytes caps client request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// TraceRing is how many recent request traces are retained for
	// GET /debug/traces. 0 takes the default (256); negative disables.
	TraceRing int
	// ErrorLog receives handler panic reports. Default slog.Default().
	ErrorLog *slog.Logger
	// Dial overrides upstream dialing (tests use it to fail fast or
	// route through pipes). Nil means TCP with a 2s dial timeout.
	Dial func(addr string) (net.Conn, error)
}

func (c *Config) fill() {
	if c.Replicas < 1 {
		c.Replicas = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = c.Replicas - 1
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 10 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.BreakerFails < 1 {
		c.BreakerFails = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.ErrorLog == nil {
		c.ErrorLog = slog.Default()
	}
}

// routeState is one immutable routing epoch: the ring plus the
// upstream handles aligned with its shard indices. Swapped atomically
// on topology change, so the forwarding hot path reads one pointer and
// never takes a lock.
type routeState struct {
	ring *Ring
	ups  []*upstream
}

// Proxy terminates client HTTP/JSON and binary-frame evaluation
// requests, routes each grid name to its owning shard through the
// consistent-hash ring, and forwards upstream over persistent
// connections speaking the binary protocol regardless of the client's
// protocol — the extra hop costs a frame copy, not a JSON round trip.
type Proxy struct {
	cfg    Config
	mu     sync.Mutex // serializes topology swaps
	state  atomic.Pointer[routeState]
	mux    *http.ServeMux
	tracer *obs.Tracer
	front  *serve.Front
	httpc  *http.Client // health probes and /v1/grids fan-out (not the hot path)
	writec *http.Client // observe/refine relay; longer timeout than probes

	healthStop chan struct{}
	healthDone chan struct{}
	healthOnce sync.Once
	closeOnce  sync.Once

	met proxyMetrics
}

type proxyMetrics struct {
	registry  *metrics.Registry
	upReq     *metrics.CounterVec
	upFail    *metrics.CounterVec
	retries   *metrics.Counter
	failovers *metrics.Counter
	upConns   *metrics.Gauge
	healthy   *metrics.Gauge
	epoch     *metrics.Gauge
	points    *metrics.Counter
}

// New creates a Proxy routing over the initial topology. Call Start to
// begin health polling and Close on shutdown.
func New(cfg Config, t Topology) (*Proxy, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	p := &Proxy{
		cfg:        cfg,
		tracer:     obs.New(cfg.TraceRing),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
		httpc:      &http.Client{Timeout: cfg.HealthTimeout},
		writec:     &http.Client{Timeout: cfg.UpstreamTimeout},
	}

	r := metrics.NewRegistry()
	p.met = proxyMetrics{
		registry:  r,
		upReq:     r.NewCounterVec("sgproxy_upstream_requests_total", "Upstream attempts, by shard ID.", "shard"),
		upFail:    r.NewCounterVec("sgproxy_upstream_failures_total", "Upstream attempts that failed (transport error, 502 or 503), by shard ID.", "shard"),
		retries:   r.NewCounter("sgproxy_retries_total", "Requests retried on a replica after an upstream attempt failed."),
		failovers: r.NewCounter("sgproxy_failovers_total", "Requests answered by a non-primary replica."),
		upConns:   r.NewGauge("sgproxy_upstream_open_connections", "Persistent upstream connections currently open (pooled idle plus in-flight)."),
		healthy:   r.NewGauge("sgproxy_shards_healthy", "Shards currently passing active health checks with a closed breaker."),
		epoch:     r.NewGauge("sgproxy_topology_epoch", "Epoch of the topology currently routing."),
		points:    r.NewCounter("sgproxy_points_forwarded_total", "Evaluation points forwarded upstream."),
	}

	p.front = serve.NewFront("sgproxy", r, p.tracer, cfg.ErrorLog, nil)
	p.state.Store(p.buildState(t, nil))
	p.met.epoch.Set(float64(t.Epoch))
	p.met.healthy.Set(float64(len(t.Shards)))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.Handle("GET /metrics", r.Handler())
	mux.Handle("GET /debug/traces", p.tracer.Handler())
	mux.HandleFunc("GET /v1/grids", p.handleGrids)
	mux.HandleFunc("POST /v1/eval", p.front.Instrument("eval", "json", p.handleJSON(false)))
	mux.HandleFunc("POST /v1/eval/batch", p.front.Instrument("batch", "json", p.handleJSON(true)))
	mux.HandleFunc("POST /v1/eval/bin", p.front.Instrument("eval_bin", "bin", p.handleEvalBin))
	mux.HandleFunc("POST /v1/grids/{name}/observe", p.front.Instrument("observe", "json", p.relayWrite("observe")))
	mux.HandleFunc("POST /v1/grids/{name}/refine", p.front.Instrument("refine", "json", p.relayWrite("refine")))
	mux.HandleFunc("GET /admin/topology", p.handleTopologyGet)
	mux.HandleFunc("POST /admin/topology", p.handleTopologySet)
	p.mux = mux
	return p, nil
}

// buildState constructs the routing state for t, carrying over the
// upstream handle (connection pool + breaker state) of every shard
// whose ID and address both survive from prev. A replacement shard —
// same ID, new address — gets a fresh handle and a clean breaker.
func (p *Proxy) buildState(t Topology, prev *routeState) *routeState {
	carried := make(map[string]*upstream)
	if prev != nil {
		for _, u := range prev.ups {
			carried[u.shard.ID+"\x00"+u.shard.Addr] = u
		}
	}
	rs := &routeState{ring: NewRing(t, p.cfg.VirtualNodes)}
	rs.ups = make([]*upstream, len(t.Shards))
	for i, s := range t.Shards {
		if u, ok := carried[s.ID+"\x00"+s.Addr]; ok {
			rs.ups[i] = u
			delete(carried, s.ID+"\x00"+s.Addr)
			continue
		}
		u := newUpstream(s, p.cfg.Dial, p.met.upConns)
		u.metReq = p.met.upReq.With(s.ID)
		u.metFail = p.met.upFail.With(s.ID)
		rs.ups[i] = u
	}
	// Shards not carried over are gone; drain their pools.
	for _, u := range carried {
		u.close()
	}
	return rs
}

// Handler returns the routing handler for an http.Server.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Metrics exposes the proxy's metrics registry.
func (p *Proxy) Metrics() *metrics.Registry { return p.met.registry }

// Topology returns the topology currently routing.
func (p *Proxy) Topology() Topology { return p.state.Load().ring.Topology() }

// SetTopology swaps in a strictly newer topology; routing rebalances
// atomically and connection pools of surviving shards are kept warm.
func (p *Proxy) SetTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.state.Load()
	if t.Epoch <= cur.ring.Topology().Epoch {
		return fmt.Errorf("shard: topology epoch %d is not newer than the current %d",
			t.Epoch, cur.ring.Topology().Epoch)
	}
	p.state.Store(p.buildState(t, cur))
	p.met.epoch.Set(float64(t.Epoch))
	return nil
}

// Start launches the health poller. Safe to call once.
func (p *Proxy) Start() {
	p.healthOnce.Do(func() { go p.healthLoop() })
}

// Close stops the poller and drains every upstream connection pool.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.healthStop)
		p.healthOnce.Do(func() { close(p.healthDone) }) // poller never started
		<-p.healthDone
		for _, u := range p.state.Load().ups {
			u.close()
		}
	})
}

// healthLoop polls every shard's /healthz on the configured interval
// and publishes verdicts into the upstream handles the hot path reads.
func (p *Proxy) healthLoop() {
	defer close(p.healthDone)
	tick := time.NewTicker(p.cfg.HealthInterval)
	defer tick.Stop()
	for {
		p.pollHealth()
		select {
		case <-p.healthStop:
			return
		case <-tick.C:
		}
	}
}

// pollHealth runs one sweep. Probes run sequentially — shard counts
// are small and the probe timeout bounds the sweep.
func (p *Proxy) pollHealth() {
	rs := p.state.Load()
	now := time.Now()
	healthy := 0
	for _, u := range rs.ups {
		ok := p.probe(u)
		u.unhealthy.Store(!ok)
		if ok && u.available(now) {
			healthy++
		}
	}
	p.met.healthy.Set(float64(healthy))
}

func (p *Proxy) probe(u *upstream) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+u.shard.Addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ---------------------------------------------------------------------
// forwarding

// proxyBuf owns every buffer one forwarded request needs. Pooled so
// the steady-state binary forward costs no allocations.
type proxyBuf struct {
	raw    []byte // client request body
	frame  []byte // frame built from a JSON request
	owners []int  // replica candidates for this request
	rt     rtBuf  // upstream round-trip buffers
}

var proxyBufPool = sync.Pool{New: func() any { return new(proxyBuf) }}

var errNoShard = errors.New("shard: no shard available")

// forward routes frame by name and tries replicas in candidate order:
// available owners first (healthy, breaker closed), then — only if
// every owner is sidelined — the sidelined ones as a last resort, so
// a fully-tripped candidate set still gets probe traffic instead of
// failing fast forever. Transport errors and 502/503 fail over to the
// next replica (evaluations are idempotent); any other status is the
// shard's answer and is relayed. Returns the upstream status.
func (p *Proxy) forward(rs *routeState, pb *proxyBuf, frame []byte, name []byte, reqID string) (int, error) {
	pb.owners = rs.ring.OwnersInto(pb.owners[:0], name, p.cfg.Replicas)
	if len(pb.owners) == 0 {
		return 0, errNoShard
	}
	now := time.Now()
	// Stable-partition the owner order: available first. The common
	// case (everything up) takes the first branch only.
	avail := 0
	for _, si := range pb.owners {
		if rs.ups[si].available(now) {
			avail++
		}
	}
	if avail > 0 && avail < len(pb.owners) {
		// Rebuild pb.owners in partitioned order using the tail of the
		// same slice as scratch (capacity 2× owners is tiny).
		n := len(pb.owners)
		pb.owners = pb.owners[:n] // re-slice for clarity
		for _, si := range pb.owners[:n] {
			if !rs.ups[si].available(now) {
				pb.owners = append(pb.owners, si)
			}
		}
		k := 0
		for _, si := range pb.owners[:n] {
			if rs.ups[si].available(now) {
				pb.owners[k] = si
				k++
			}
		}
		copy(pb.owners[k:n], pb.owners[n:])
		pb.owners = pb.owners[:n]
	}

	budget := p.cfg.Retries + 1
	var lastErr error
	for i, si := range pb.owners {
		if i >= budget {
			break
		}
		if i > 0 {
			p.met.retries.Inc()
		}
		u := rs.ups[si]
		u.metReq.Inc()
		deadline := time.Now().Add(p.cfg.UpstreamTimeout)
		status, err := u.roundTrip(&pb.rt, frame, reqID, deadline)
		if err != nil {
			u.fail(int32(p.cfg.BreakerFails), p.cfg.BreakerCooloff)
			u.metFail.Inc()
			lastErr = err
			continue
		}
		if status == http.StatusBadGateway || status == http.StatusServiceUnavailable {
			u.fail(int32(p.cfg.BreakerFails), p.cfg.BreakerCooloff)
			u.metFail.Inc()
			lastErr = fmt.Errorf("shard %s answered %d", u.shard.ID, status)
			continue
		}
		u.success()
		if i > 0 {
			p.met.failovers.Inc()
		}
		return status, nil
	}
	if lastErr == nil {
		lastErr = errNoShard
	}
	return 0, lastErr
}

// ---------------------------------------------------------------------
// handlers

// relayUpstream writes the upstream's response (binary values frame or
// JSON error body) to the client verbatim. Relayed error statuses are
// counted toward sgproxy_errors_total here because they return nil from
// the handler and never take the front's error path.
func (p *Proxy) relayUpstream(w http.ResponseWriter, sp *obs.Span, pb *proxyBuf, handler string, status int) {
	if status >= 400 {
		p.front.CountError(handler)
	}
	ct := "application/json; charset=utf-8"
	if pb.rt.respBin {
		ct = serve.BinContentType
	}
	sp.SetStatus(status)
	sp.Begin(obs.StageEncode)
	p.front.WriteBody(w, status, ct, pb.rt.resp)
	sp.End(obs.StageEncode)
}

// dispatch forwards frame to the shards owning the grid name, timed as
// the request's dispatch stage, and returns the upstream status.
func (p *Proxy) dispatch(r *http.Request, pb *proxyBuf, frame, name []byte) (int, error) {
	sp := obs.FromContext(r.Context())
	sp.Begin(obs.StageDispatch)
	status, err := p.forward(p.state.Load(), pb, frame, name, r.Header.Get("X-Request-Id"))
	sp.End(obs.StageDispatch)
	if err != nil {
		return 0, serve.Errorf(http.StatusBadGateway, "no shard answered for grid %q: %v", name, err)
	}
	return status, nil
}

// handleEvalBin forwards a client binary frame verbatim: peek the grid
// name for routing, pick the owner, one upstream round trip, relay the
// response bytes. The steady-state cost is the frame copy — zero
// allocations (asserted by TestForwardBinZeroAlloc).
func (p *Proxy) handleEvalBin(w http.ResponseWriter, r *http.Request) error {
	sp := obs.FromContext(r.Context())
	pb := proxyBufPool.Get().(*proxyBuf)
	defer proxyBufPool.Put(pb)

	sp.Begin(obs.StageDecode)
	var name []byte
	var err error
	if pb.raw, err = serve.ReadBody(pb.raw, r.Body, p.cfg.MaxBodyBytes); err == nil {
		if name, err = serve.FrameGridName(pb.raw); err != nil {
			err = serve.Errorf(http.StatusBadRequest, "invalid binary frame: %v", err)
		}
	}
	sp.End(obs.StageDecode)
	if err != nil {
		return err
	}
	status, err := p.dispatch(r, pb, pb.raw, name)
	if err != nil {
		return err
	}
	p.relayUpstream(w, sp, pb, "eval_bin", status)
	return nil
}

// handleJSON terminates /v1/eval (batch false) and /v1/eval/batch: it
// decodes the body with the shards' own strict decoder, forwards the
// points upstream as a binary frame, and translates the values frame
// back to {"value": ...} or {"values": [...]} so clients cannot tell
// the proxy re-encoded. A non-200 upstream answer is relayed verbatim.
func (p *Proxy) handleJSON(batch bool) func(http.ResponseWriter, *http.Request) error {
	handler := "eval"
	if batch {
		handler = "batch"
	}
	return func(w http.ResponseWriter, r *http.Request) error {
		sp := obs.FromContext(r.Context())
		var req serve.BatchRequest
		var err error
		if batch {
			err = serve.DecodeJSON(r, p.cfg.MaxBodyBytes, &req)
		} else {
			var one serve.EvalRequest
			err = serve.DecodeJSON(r, p.cfg.MaxBodyBytes, &one)
			req = serve.BatchRequest{Grid: one.Grid, Points: [][]float64{one.Point}}
		}
		if err != nil {
			return err
		}
		// The frame is one n·d block with d taken from point 0: a ragged
		// batch would be re-cut into points the client never sent.
		for k, x := range req.Points {
			if len(x) != len(req.Points[0]) {
				return serve.Errorf(http.StatusBadRequest,
					"point %d has %d coordinates, point 0 has %d", k, len(x), len(req.Points[0]))
			}
		}
		sp.SetGrid(req.Grid)
		pb := proxyBufPool.Get().(*proxyBuf)
		defer proxyBufPool.Put(pb)
		pb.frame = serve.AppendEvalFrame(pb.frame[:0], req.Grid, req.Points)
		status, err := p.dispatch(r, pb, pb.frame, unsafeNameBytes(pb, req.Grid))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			p.relayUpstream(w, sp, pb, handler, status)
			return nil
		}
		vals, err := serve.ParseValuesFrame(pb.rt.resp)
		if err == nil && len(vals) != len(req.Points) {
			err = fmt.Errorf("%d values for %d points", len(vals), len(req.Points))
		}
		if err != nil {
			return serve.Errorf(http.StatusBadGateway, "shard sent an invalid values frame: %v", err)
		}
		p.met.points.Add(uint64(len(vals)))
		sp.SetStatus(http.StatusOK)
		sp.Begin(obs.StageEncode)
		if batch {
			p.front.WriteJSON(w, http.StatusOK, struct {
				Values []float64 `json:"values"`
			}{vals})
		} else {
			p.front.WriteJSON(w, http.StatusOK, struct {
				Value float64 `json:"value"`
			}{vals[0]})
		}
		sp.End(obs.StageEncode)
		return nil
	}
}

// unsafeNameBytes returns the grid name as bytes for ring routing. The
// frame was just built from grid, so its name field is exactly grid's
// bytes — alias them instead of converting the string.
func unsafeNameBytes(pb *proxyBuf, grid string) []byte {
	if len(grid) == 0 {
		return nil
	}
	return pb.frame[2 : 2+len(grid)]
}

// ---------------------------------------------------------------------
// health, grids, admin

type shardHealth struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Healthy     bool   `json:"healthy"`
	BreakerOpen bool   `json:"breaker_open"`
}

type healthResponse struct {
	Status string        `json:"status"`
	Epoch  uint64        `json:"epoch"`
	Shards []shardHealth `json:"shards"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rs := p.state.Load()
	now := time.Now()
	resp := healthResponse{Epoch: rs.ring.Topology().Epoch}
	availCount := 0
	for _, u := range rs.ups {
		h := shardHealth{
			ID:          u.shard.ID,
			Addr:        u.shard.Addr,
			Healthy:     !u.unhealthy.Load(),
			BreakerOpen: now.UnixNano() < u.openUntil.Load(),
		}
		if u.available(now) {
			availCount++
		}
		resp.Shards = append(resp.Shards, h)
	}
	status := http.StatusOK
	resp.Status = "ok"
	if availCount == 0 {
		status = http.StatusServiceUnavailable
		resp.Status = "no shards available"
	}
	p.front.WriteJSON(w, status, resp)
}

// handleGrids relays GET /v1/grids from the first shard that answers
// (every shard registers the same grid files, so any copy is
// authoritative for names and shapes).
func (p *Proxy) handleGrids(w http.ResponseWriter, r *http.Request) {
	rs := p.state.Load()
	now := time.Now()
	// Two passes mirroring forward's candidate order: available
	// shards, then everyone.
	for pass := 0; pass < 2; pass++ {
		for _, u := range rs.ups {
			if pass == 0 && !u.available(now) {
				continue
			}
			ctx, cancel := context.WithTimeout(r.Context(), p.cfg.HealthTimeout)
			req, err := http.NewRequestWithContext(ctx, "GET", "http://"+u.shard.Addr+"/v1/grids", nil)
			if err != nil {
				cancel()
				continue
			}
			resp, err := p.httpc.Do(req)
			if err != nil {
				cancel()
				continue
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				cancel()
				continue
			}
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(http.StatusOK)
			io.Copy(w, resp.Body)
			resp.Body.Close()
			cancel()
			return
		}
	}
	p.front.WriteError(w, serve.Errorf(http.StatusBadGateway, "no shard answered /v1/grids"))
}

// ---------------------------------------------------------------------
// online write-path relay

// relayWrite returns the handler that forwards online write traffic
// (verb observe or refine) to the shard that OWNS the grid name — the
// same ring owner evaluations route to, so a model's observations,
// refinement state, and swapped snapshots all live on one shard. Unlike
// evaluations, writes are not idempotent: exactly one upstream attempt
// is made (the first available owner) and its answer — success or
// failure — is relayed verbatim, never retried on a replica.
func (p *Proxy) relayWrite(verb string) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		sp := obs.FromContext(r.Context())
		// The name becomes a segment of the upstream URL: refuse what the
		// shard refuses before any upstream call, or an encoded "../" or
		// "?" would steer the write to another shard endpoint.
		name := r.PathValue("name")
		if err := serve.ValidateGridName(name); err != nil {
			return err
		}
		sp.SetGrid(name)

		sp.Begin(obs.StageDecode)
		body, err := serve.ReadBody(nil, r.Body, p.cfg.MaxBodyBytes)
		sp.End(obs.StageDecode)
		if err != nil {
			return err
		}

		rs := p.state.Load()
		owners := rs.ring.OwnersInto(nil, []byte(name), p.cfg.Replicas)
		if len(owners) == 0 {
			return serve.Errorf(http.StatusServiceUnavailable, "no shard available for grid %q", name)
		}
		// The first available owner is the write primary; with every owner
		// sidelined, fall back to the ring primary so the client gets the
		// real upstream error rather than a synthesized one.
		now := time.Now()
		u := rs.ups[owners[0]]
		for _, idx := range owners {
			if rs.ups[idx].available(now) {
				u = rs.ups[idx]
				break
			}
		}

		ctx, cancel := context.WithTimeout(r.Context(), p.cfg.UpstreamTimeout)
		defer cancel()
		url := "http://" + u.shard.Addr + "/v1/grids/" + name + "/" + verb
		req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
		if err != nil {
			return serve.Errorf(http.StatusInternalServerError, "building upstream request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id := r.Header.Get("X-Request-Id"); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		u.metReq.Inc()
		sp.Begin(obs.StageDispatch)
		resp, err := p.writec.Do(req)
		sp.End(obs.StageDispatch)
		if err != nil {
			u.metFail.Inc()
			return serve.Errorf(http.StatusBadGateway, "shard %s did not answer %s for grid %q: %v", u.shard.ID, verb, name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			u.metFail.Inc()
		}
		if resp.StatusCode >= 400 {
			// Relayed errors return nil below and skip the front's error
			// path; count them here like relayUpstream does.
			p.front.CountError(verb)
		}
		sp.SetStatus(resp.StatusCode)
		sp.Begin(obs.StageEncode)
		ct := resp.Header.Get("Content-Type")
		if ct == "" {
			ct = "application/json; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		sp.End(obs.StageEncode)
		return nil
	}
}

func (p *Proxy) handleTopologyGet(w http.ResponseWriter, _ *http.Request) {
	p.front.WriteJSON(w, http.StatusOK, p.Topology())
}

// handleTopologySet swaps the routing topology: POST a Topology JSON
// with a strictly newer epoch. Stale epochs are 409s, so concurrent
// controllers cannot fight routing backwards.
func (p *Proxy) handleTopologySet(w http.ResponseWriter, r *http.Request) {
	var t Topology
	if err := serve.DecodeJSON(r, p.cfg.MaxBodyBytes, &t); err != nil {
		p.front.WriteError(w, err)
		return
	}
	if err := p.SetTopology(t); err != nil {
		status := http.StatusBadRequest
		if t.Validate() == nil {
			status = http.StatusConflict // structurally fine, stale epoch
		}
		p.front.WriteError(w, serve.Errorf(status, "%v", err))
		return
	}
	// Re-poll immediately so a replacement shard turns routable without
	// waiting out a full health interval.
	p.pollHealth()
	p.front.WriteJSON(w, http.StatusOK, p.Topology())
}
