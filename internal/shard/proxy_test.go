package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/serve"
	"compactsg/internal/serve/middleware"
)

// testShard is one in-process sgserve behind a real TCP listener, so
// the proxy's persistent upstream connections are real and die for
// real when the shard is killed.
type testShard struct {
	id   string
	addr string
	srv  *serve.Server
	hs   *http.Server
}

func (s *testShard) kill() {
	s.hs.Close()
	s.srv.Close()
}

// startShards writes refGrids grid files once and boots n shards that
// all register them, mirroring a production artifact store. Every
// shard trusts loopback so proxy-propagated X-Request-Id headers
// survive its middleware.
func startShards(t *testing.T, n int) ([]*testShard, map[string]*compactsg.Grid) {
	t.Helper()
	dir := t.TempDir()
	refs := make(map[string]*compactsg.Grid)
	type gridFile struct{ name, path string }
	var files []gridFile
	for k := 0; k < 3; k++ {
		name := fmt.Sprintf("g%d", k)
		g, err := compactsg.New(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		g.Compress(func(x []float64) float64 {
			return float64(k+1) * (x[0] + 2*x[1])
		})
		path := filepath.Join(dir, name+".sg")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		refs[name] = g
		files = append(files, gridFile{name, path})
	}

	proxies, err := middleware.ParseProxies("127.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*testShard, n)
	for i := range shards {
		srv := serve.New(serve.Config{ShardID: fmt.Sprintf("s%d", i)})
		for _, gf := range files {
			if err := srv.AddGrid(gf.name, gf.path); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Preload(); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: middleware.Chain(srv.Handler(),
			middleware.RequestID(proxies), middleware.RealIP(proxies))}
		go hs.Serve(ln) //nolint:errcheck
		shards[i] = &testShard{id: fmt.Sprintf("s%d", i), addr: ln.Addr().String(), srv: srv, hs: hs}
		t.Cleanup(shards[i].kill)
	}
	return shards, refs
}

func newTestProxy(t *testing.T, shards []*testShard, cfg Config) *Proxy {
	t.Helper()
	topo := Topology{Epoch: 1}
	for _, s := range shards {
		topo.Shards = append(topo.Shards, Shard{ID: s.id, Addr: s.addr})
	}
	p, err := New(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func proxyPost(p *Proxy, path, contentType, reqID string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	return rec
}

// TestProxyTerminatesBothProtocols: JSON and binary clients must get
// correct values through the proxy, with the inner hop always binary.
func TestProxyTerminatesBothProtocols(t *testing.T) {
	shards, refs := startShards(t, 3)
	p := newTestProxy(t, shards, Config{})
	x := []float64{0.25, 0.75}
	for name, ref := range refs {
		want, err := ref.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}

		body, _ := json.Marshal(map[string]any{"grid": name, "point": x})
		rec := proxyPost(p, "/v1/eval", "application/json", "", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("eval %s: status %d body %s", name, rec.Code, rec.Body)
		}
		var single struct {
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.Value-want) > 1e-12 {
			t.Fatalf("eval %s: got %g want %g", name, single.Value, want)
		}

		body, _ = json.Marshal(map[string]any{"grid": name, "points": [][]float64{x, x}})
		rec = proxyPost(p, "/v1/eval/batch", "application/json", "", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %s: status %d body %s", name, rec.Code, rec.Body)
		}
		var batch struct {
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Values) != 2 || math.Abs(batch.Values[0]-want) > 1e-12 {
			t.Fatalf("batch %s: got %v want two of %g", name, batch.Values, want)
		}

		rec = proxyPost(p, "/v1/eval/bin", serve.BinContentType, "",
			serve.AppendEvalFrame(nil, name, [][]float64{x}))
		if rec.Code != http.StatusOK {
			t.Fatalf("bin %s: status %d body %s", name, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != serve.BinContentType {
			t.Fatalf("bin %s: Content-Type %q", name, ct)
		}
		vals, err := serve.ParseValuesFrame(rec.Body.Bytes())
		if err != nil || len(vals) != 1 {
			t.Fatalf("bin %s: vals=%v err=%v", name, vals, err)
		}
		if math.Abs(vals[0]-want) > 1e-12 {
			t.Fatalf("bin %s: got %g want %g", name, vals[0], want)
		}
	}
}

// TestProxyRelaysUpstreamErrors: a shard's 404 for an unknown grid
// must come back through the proxy with the status and JSON error body
// intact, not be mistaken for a shard failure and retried to death.
func TestProxyRelaysUpstreamErrors(t *testing.T) {
	shards, _ := startShards(t, 2)
	p := newTestProxy(t, shards, Config{})
	rec := proxyPost(p, "/v1/eval/bin", serve.BinContentType, "",
		serve.AppendEvalFrame(nil, "nope", [][]float64{{0.5, 0.5}}))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unknown grid") {
		t.Fatalf("body %q lacks the shard's error", rec.Body)
	}
	if got := p.met.retries.Value(); got != 0 {
		t.Fatalf("a 404 caused %d retries; client errors must not burn the failover budget", got)
	}
	var out bytes.Buffer
	p.Metrics().WritePrometheus(&out)
	if got := metricLine(out.String(), `sgproxy_errors_total{handler="eval_bin"}`); got != "1" {
		t.Fatalf("sgproxy_errors_total{eval_bin} = %s after a relayed 404, want 1 (relayed errors are client-visible failures)", got)
	}
}

// TestProxyFailover: with one of three shards dead, every request must
// still answer correctly via replica retry, and the retry/failover
// counters must show the proxy actually took that path.
func TestProxyFailover(t *testing.T) {
	shards, refs := startShards(t, 3)
	p := newTestProxy(t, shards, Config{
		UpstreamTimeout: 2 * time.Second,
		BreakerCooloff:  50 * time.Millisecond,
	})
	shards[1].kill()

	x := []float64{0.5, 0.5}
	for name, ref := range refs {
		want, _ := ref.Evaluate(x)
		for k := 0; k < 8; k++ {
			rec := proxyPost(p, "/v1/eval/bin", serve.BinContentType, "",
				serve.AppendEvalFrame(nil, name, [][]float64{x}))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s try %d: status %d body %s (failover must hide one dead shard)", name, k, rec.Code, rec.Body)
			}
			vals, err := serve.ParseValuesFrame(rec.Body.Bytes())
			if err != nil || len(vals) != 1 || math.Abs(vals[0]-want) > 1e-12 {
				t.Fatalf("%s try %d: vals=%v err=%v want %g", name, k, vals, err, want)
			}
		}
	}
	if p.met.failovers.Value() == 0 {
		t.Fatal("no request failed over; the dead shard owned none of the test grids (raise grid count)")
	}
}

// TestProxyTopologySwap: the epoch bump is the rebalance mechanism —
// stale epochs must be refused (409 over HTTP) and a newer epoch must
// route to the replacement shard.
func TestProxyTopologySwap(t *testing.T) {
	shards, refs := startShards(t, 3)
	p := newTestProxy(t, shards, Config{})

	// Same epoch: refused.
	if err := p.SetTopology(p.Topology()); err == nil {
		t.Fatal("SetTopology accepted a non-newer epoch")
	}
	stale, _ := json.Marshal(p.Topology())
	rec := proxyPost(p, "/admin/topology", "application/json", "", stale)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale epoch POST: status %d, want 409", rec.Code)
	}

	// Kill s1 and swap in a replacement with the same ID on a new port.
	shards[1].kill()
	repl, _ := startShards(t, 1)
	next := p.Topology()
	next.Epoch = 2
	for i := range next.Shards {
		if next.Shards[i].ID == "s1" {
			next.Shards[i].Addr = repl[0].addr
		}
	}
	body, _ := json.Marshal(next)
	rec = proxyPost(p, "/admin/topology", "application/json", "", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("topology bump: status %d body %s", rec.Code, rec.Body)
	}
	if got := p.Topology().Epoch; got != 2 {
		t.Fatalf("epoch %d after bump, want 2", got)
	}

	// Every grid answers; the replacement's serve counter must move for
	// grids it owns (it reuses s1's ring position).
	x := []float64{0.25, 0.5}
	for name, ref := range refs {
		want, _ := ref.Evaluate(x)
		rec := proxyPost(p, "/v1/eval/bin", serve.BinContentType, "",
			serve.AppendEvalFrame(nil, name, [][]float64{x}))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after swap: status %d body %s", name, rec.Code, rec.Body)
		}
		if vals, err := serve.ParseValuesFrame(rec.Body.Bytes()); err != nil || math.Abs(vals[0]-want) > 1e-12 {
			t.Fatalf("%s after swap: vals=%v err=%v want %g", name, vals, err, want)
		}
	}
}

// TestProxyRequestIDPropagation: one client request must be findable
// under the same external ID in BOTH processes' trace rings — the
// proxy's (via Span.SetExtID) and the shard's (via the forwarded
// X-Request-Id header surviving the shard's trusted-proxy middleware).
func TestProxyRequestIDPropagation(t *testing.T) {
	shards, _ := startShards(t, 2)
	p := newTestProxy(t, shards, Config{})
	const reqID = "trace-me-123"
	rec := proxyPost(p, "/v1/eval/bin", serve.BinContentType, reqID,
		serve.AppendEvalFrame(nil, "g0", [][]float64{{0.5, 0.5}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}

	foundProxy := false
	for _, tr := range p.tracer.Snapshot() {
		if tr.ExtID == reqID {
			foundProxy = true
		}
	}
	if !foundProxy {
		t.Fatal("proxy trace ring has no trace with the client's X-Request-Id")
	}
	foundShard := false
	for _, s := range shards {
		for _, tr := range s.srv.Tracer().Snapshot() {
			if tr.ExtID == reqID {
				foundShard = true
			}
		}
	}
	if !foundShard {
		t.Fatal("no shard trace carries the propagated X-Request-Id; the hop is untraceable")
	}
}

// TestProxyHealthz: the detail endpoint reports per-shard state, and a
// fully-dead backend set turns the proxy 503 once the poller has run.
func TestProxyHealthz(t *testing.T) {
	shards, _ := startShards(t, 2)
	p := newTestProxy(t, shards, Config{HealthInterval: 20 * time.Millisecond, HealthTimeout: 200 * time.Millisecond})
	p.Start()

	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy cluster: status %d body %s", rec.Code, rec.Body)
	}
	var resp struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
		Shards []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || len(resp.Shards) != 2 {
		t.Fatalf("healthz = %+v", resp)
	}

	for _, s := range shards {
		s.kill()
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		rec = httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy still reports %d with every shard dead", rec.Code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProxyGrids: the grid listing relays from a live shard even when
// the first shard in topology order is dead.
func TestProxyGrids(t *testing.T) {
	shards, refs := startShards(t, 2)
	p := newTestProxy(t, shards, Config{})
	shards[0].kill()

	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/grids", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	var resp struct {
		Grids []struct {
			Name string `json:"name"`
		} `json:"grids"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Grids) != len(refs) {
		t.Fatalf("%d grids relayed, want %d", len(resp.Grids), len(refs))
	}
}
