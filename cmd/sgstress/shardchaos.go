// Shard-chaos scenario: a three-shard sgproxy deployment under
// continuous verified traffic while one shard is hard-killed and later
// replaced, each after a seeded count of verified requests. Everything runs in this process so the whole scenario —
// proxy routing, upstream pooling, breaker trips, topology swap — is
// visible to the race detector; the proxy still reaches the shards
// over real TCP, so connection death behaves like production. The
// separate scripts/proxy_demo.sh covers the real-binaries,
// real-processes version of the same story.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"compactsg/internal/serve"
	"compactsg/internal/shard"
)

// shardProc is one in-process "shard": a serve.Server behind a real
// TCP listener, so the proxy's persistent connections die for real
// when the shard is killed.
type shardProc struct {
	id   string
	addr string
	srv  *serve.Server
	hs   *http.Server
}

func startShard(id string, files []gridFile, cfg config) (*shardProc, error) {
	sc := serveConfig(cfg)
	sc.MaxResident = len(files) // chaos targets shard death, not LRU churn
	sc.ShardID = id
	srv := serve.New(sc)
	for _, g := range files {
		if err := srv.AddGrid(g.name, g.path); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if err := srv.Preload(); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ConnState: srv.ConnState}
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on kill
	return &shardProc{id: id, addr: ln.Addr().String(), srv: srv, hs: hs}, nil
}

// kill hard-closes the listener and every open connection — the
// in-process equivalent of the process dying mid-request.
func (s *shardProc) kill() {
	s.hs.Close()
	s.srv.Close()
}

func shardChaos(cfg config) error {
	sched := newSchedule(cfg.seed)
	h := newHarness(cfg, "shard-chaos", fmt.Sprintf("shard s1 killed after verified request %d, replaced after %d", sched.kill, sched.replace))
	dir, err := os.MkdirTemp("", "sgstress-shard")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One grid file set shared by every shard (in production each shard
	// registers the same artifact store).
	files, err := writeGrids(dir, cfg)
	if err != nil {
		return err
	}

	shards := make([]*shardProc, cfg.shardCount)
	for i := range shards {
		if shards[i], err = startShard(fmt.Sprintf("s%d", i), files, cfg); err != nil {
			return err
		}
	}

	topo := shard.Topology{Epoch: 1}
	for _, s := range shards {
		topo.Shards = append(topo.Shards, shard.Shard{ID: s.id, Addr: s.addr})
	}
	p, err := shard.New(shard.Config{
		Replicas:        cfg.replicas,
		UpstreamTimeout: cfg.timeout,
		HealthInterval:  100 * time.Millisecond,
		HealthTimeout:   500 * time.Millisecond,
		BreakerFails:    2,
		BreakerCooloff:  200 * time.Millisecond,
	}, topo)
	if err != nil {
		return err
	}
	p.Start()
	c := client{h: p.Handler(), protocol: cfg.protocol, dim: cfg.dim}

	trafficStats := newStats("chaos")
	var verified, failed atomic.Uint64
	killAt, replaceAt := make(chan struct{}), make(chan struct{})

	// Traffic: every value is verified against the reference grid. A
	// non-200 during chaos is budgeted; a wrong value never is.
	h.workers("traffic", cfg.hot+cfg.cold, 0, func(rng *rand.Rand, _ uint64) error {
		g := files[rng.Intn(len(files))]
		r, err := c.eval(rng, g.name, cfg.timeout)
		if err != nil {
			return err
		}
		trafficStats.observe(r.took)
		if r.code != http.StatusOK {
			failed.Add(1)
			return nil
		}
		if err := verify(g.ref, r); err != nil {
			return fmt.Errorf("%w — failover served a wrong value", err)
		}
		switch verified.Add(1) {
		case sched.kill:
			close(killAt)
		case sched.replace:
			close(replaceAt)
		}
		return nil
	})

	// Chaos controller: kill the victim at its scheduled request,
	// resurrect it (same ID, fresh port) at the next, and require the
	// proxy to route traffic to the replacement within 2s of the epoch
	// bump.
	victim := shards[1]
	var replacement *shardProc
	var recoveryTook time.Duration
	h.spawn(func() error {
		select {
		case <-h.ctx.Done():
			return nil
		case <-killAt:
		}
		victim.kill()
		select {
		case <-h.ctx.Done():
			return nil
		case <-replaceAt:
		}
		repl, err := startShard(victim.id, files, cfg)
		if err != nil {
			return fmt.Errorf("restarting shard %s: %w", victim.id, err)
		}
		replacement = repl
		victimSeries := fmt.Sprintf(`sgproxy_upstream_requests_total{shard=%q}`, victim.id)
		upstream := func() (float64, error) {
			m, err := scrape(c.h)
			if err != nil {
				return 0, err
			}
			return m.need(victimSeries)
		}
		before, err := upstream()
		if err != nil {
			return err
		}
		newTopo := shard.Topology{Epoch: 2}
		for _, s := range shards {
			a := s.addr
			if s.id == victim.id {
				a = repl.addr
			}
			newTopo.Shards = append(newTopo.Shards, shard.Shard{ID: s.id, Addr: a})
		}
		body, _ := json.Marshal(newTopo)
		bump := time.Now()
		if rec := post(context.Background(), c.h, "/admin/topology", "application/json", body); rec.Code != http.StatusOK {
			return fmt.Errorf("topology bump: status %d body %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		for {
			now, err := upstream()
			if err != nil {
				return err
			}
			if now != before {
				recoveryTook = time.Since(bump)
				return nil
			}
			if time.Since(bump) > 2*time.Second {
				return fmt.Errorf("replacement shard %s got no traffic within 2s of the epoch bump", victim.id)
			}
			select {
			case <-h.ctx.Done():
				return fmt.Errorf("run ended before the replacement shard saw traffic (raise -duration)")
			case <-time.After(20 * time.Millisecond):
			}
		}
	})
	h.wg.Wait()

	// The proxy must have converged: epoch 2, every shard available.
	hrec := httptest.NewRecorder()
	c.h.ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Epoch  uint64 `json:"epoch"`
		Shards []struct {
			ID          string `json:"id"`
			Healthy     bool   `json:"healthy"`
			BreakerOpen bool   `json:"breaker_open"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		h.fail(fmt.Errorf("proxy /healthz unparseable: %v", err))
	} else if replacement != nil {
		if health.Epoch != 2 {
			h.fail(fmt.Errorf("proxy still routes epoch %d after the bump", health.Epoch))
		}
		for _, s := range health.Shards {
			if !s.Healthy || s.BreakerOpen {
				h.fail(fmt.Errorf("shard %s not recovered after chaos: healthy=%v breaker_open=%v", s.ID, s.Healthy, s.BreakerOpen))
			}
		}
	}
	m, err := scrape(c.h)
	if err != nil {
		h.fail(err)
	}

	err = h.end(func() error {
		p.Close()
		for _, s := range append(shards, replacement) { // killing twice is harmless
			if s != nil {
				s.kill()
			}
		}
		return nil
	})
	ok, errs := verified.Load(), failed.Load()
	fmt.Printf("  %d shards, replicas=%d, %d grids, %s traffic, GOMAXPROCS=%d\n",
		cfg.shardCount, cfg.replicas, cfg.grids, cfg.duration, runtime.GOMAXPROCS(0))
	fmt.Printf("  traffic: %s\n", trafficStats.line())
	fmt.Printf("  requests: %d ok, %d failed\n", ok, errs)
	if recoveryTook > 0 {
		fmt.Printf("  recovery: replacement serving %s after the epoch bump\n", recoveryTook.Round(time.Millisecond))
	}
	fmt.Printf("  proxy: retries=%v failovers=%v upstream-failures(victim)=%v open-conns=%v\n",
		m["sgproxy_retries_total"], m["sgproxy_failovers_total"],
		m[fmt.Sprintf(`sgproxy_upstream_failures_total{shard=%q}`, victim.id)], m["sgproxy_upstream_open_connections"])
	if err != nil {
		return err
	}
	if recoveryTook == 0 {
		return fmt.Errorf("the run ended before the shard was killed and replaced: the schedule did not run (raise -duration)")
	}
	// With -replicas failover candidates every kill-window request gets
	// retried onto a live shard, so client-visible failures should be a
	// thin sliver: the in-flight requests at the instant of the kill
	// plus breaker races. Budget 1% of traffic (min 20 requests).
	budget := (ok + errs) / 100
	if budget < 20 {
		budget = 20
	}
	if errs > budget {
		return fmt.Errorf("%d of %d requests failed; exceeds the failover budget of %d — retries are not absorbing the shard death", errs, ok+errs, budget)
	}
	fmt.Println("  PASS")
	return nil
}
