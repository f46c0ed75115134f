package main

// The traced run. It replays every workload's inputs, for a quarter of
// the window each, with client spans recorded per request, and times
// each layer's public entry point on the same inputs:
//
//	L0  kernel: hier.Parallel, eval.Batch
//	L1  in-process serve.Server.Handler()
//	L2  loopback sgserve
//	L3  through sgproxy
//
// The cost a layer adds is the difference between adjacent rows. Stage
// splits and counters come from each process's /debug/traces and
// /metrics after its window. The named workload also runs untraced
// half-windows before and after its traced one; the gap is
// bench.trace_overhead_share, and the traced window's p99 is
// latency_p99_ms.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/obs"
	"compactsg/internal/serve"
	"compactsg/internal/shard"
	"compactsg/internal/store"
)

var tracedOrder = []string{"kernel", "serve-batch", "proxy-single", "online"}

func runTraced(o *options, r *result) error {
	for _, name := range tracedOrder {
		sub := *o
		sub.workload = name
		sub.workDir = mkdirAll(filepath.Join(o.workDir, name))
		sub.window = max(2*time.Second, o.window/4)
		sub.overhead = name == o.workload
		fmt.Printf("traced: %s, %v window\n", name, sub.window)
		if err := workloads[name](&sub, r); err != nil {
			return fmt.Errorf("traced %s: %w", name, err)
		}
		stopAll()
	}
	r.set("error_share", float64(r.failed)/float64(r.attempted), "ratio")
	return nil
}

// stages records the named stage medians under prefix. A stage no
// trace in the ring recorded reads 0, with a note saying so.
func stages(r *result, prefix string, med map[string]float64, names ...string) {
	for _, name := range names {
		v, ok := med[name]
		if !ok {
			r.note("%s%s_us is 0: no trace in the ring recorded that stage", prefix, name)
		}
		r.set(prefix+name+"_us", v, "us")
	}
}

// timeUS runs f n times and returns the median duration in µs.
func timeUS(n int, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs), nil
}

// mallocs returns the heap allocations f makes per call over n calls.
func mallocs(n int, f func(i int) error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

func kernelLayers(o *options, r *result, g *compactsg.Grid, ref *kernelRef) error {
	raw := g.Raw()
	n := float64(len(ref.nodal))
	cores := float64(runtime.GOMAXPROCS(0))
	var hs [2][]float64 // [0] auto workers, [1] one worker
	for i := 0; i < 7; i++ {
		for w := 0; w < 2; w++ {
			copy(raw.Data, ref.nodal)
			t0 := time.Now()
			hier.Parallel(raw, w)
			hs[w] = append(hs[w], float64(time.Since(t0).Nanoseconds())/n)
			if err := sameBits("surplus", raw.Data, ref.surplus.Data); err != nil {
				return err
			}
		}
	}
	hAuto, h1 := median(hs[0]), median(hs[1])
	r.set("hier.ns_per_point", hAuto, "ns")
	r.set("hier.ns_per_point_w1", h1, "ns")
	r.set("hier.gb_per_s_computed", 16*kernelDim/hAuto, "GB/s")
	r.set("par.hier_efficiency", h1/hAuto/cores, "ratio")
	r.note("hier.gb_per_s_computed is computed, not measured: %d dimension passes, each reading and writing every 8-byte coefficient (16 B/point/pass)", kernelDim)
	r.note("hier.floor_ratio absent: it needs sustained bandwidth measured on arrays >= 4x the LLC (%s), beyond this benchmark's memory budget", mib(cacheBytes(3)))
	r.note("par.* efficiencies are (w1 time / wN time) / N with N = GOMAXPROCS = %d, so the speedup behind them is at most %dx", int(cores), int(cores))

	out := make([]float64, kernelBatch)
	var es [2][]float64
	for i := 0; i < 5; i++ {
		for w := 0; w < 2; w++ {
			t0 := time.Now()
			eval.Batch(raw, ref.batch, out, eval.Options{Workers: w})
			es[w] = append(es[w], float64(time.Since(t0).Nanoseconds())/kernelBatch)
			if err := sameBits("value", out, ref.batchRef); err != nil {
				return err
			}
		}
	}
	eAuto, e1 := median(es[0]), median(es[1])
	r.set("eval.ns_per_point", eAuto, "ns")
	r.set("eval.ns_per_point_w1", e1, "ns")
	r.set("par.eval_efficiency", e1/eAuto/cores, "ratio")

	// L0 of serve-batch: eval.Batch at sgserve's defaults (workers auto,
	// block 64) on the serve-batch frames.
	fx, err := newBatchFixture(o, raw)
	if err != nil {
		return err
	}
	opt := eval.Options{Workers: 0, BlockSize: 64}
	fo := make([]float64, frameSize)
	var per []float64
	for i, fr := range fx.frames {
		t0 := time.Now()
		eval.Batch(raw, fr, fo, opt)
		per = append(per, float64(time.Since(t0).Nanoseconds())/frameSize)
		if err := sameBits("frame value", fo, fx.refs[i]); err != nil {
			return err
		}
	}
	r.set("eval.ns_per_point_frame", median(per), "ns")
	allocs, err := mallocs(len(fx.frames), func(i int) error {
		eval.Batch(raw, fx.frames[i], fo, opt)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("eval.allocs_per_call", allocs, "allocs")
	return nil
}

// sinkWriter is a reusable http.ResponseWriter, so in-process handler
// timings and allocation counts carry no recorder overhead.
type sinkWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(code int)        { w.status = code }
func (w *sinkWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *sinkWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body.Reset()
}

func newSink() *sinkWriter { return &sinkWriter{h: make(http.Header), status: http.StatusOK} }

// requests pre-builds one request per body, outside any timed region.
func requests(path, ctype string, bodies [][]byte) []*http.Request {
	out := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		out[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		out[i].Header.Set("Content-Type", ctype)
	}
	return out
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func batchLayers(r *result, c *client, srv *proc, fx *batchFixture, t *timed) error {
	trs := t.traces[0]
	med, cover := stageMedians(trs, "eval_bin", t.st.spans)
	stages(r, "serve.stage.", med, "decode", "validate", "dispatch", "eval", "encode")
	r.set("serve.stage_coverage", cover, "ratio")
	r.note("serve.stage_coverage: median share of the client-observed latency of a serve-batch frame that sgserve's recorded stages cover (%d traces joined by X-Request-Id)", len(trs))

	// L1 is the in-process handler at sgserve's defaults.
	s := serve.New(serve.Config{BlockSize: 64, Coalesce: true, ErrorLog: quiet})
	defer s.Close()
	if err := s.AddGrid("field", fx.path); err != nil {
		return err
	}
	if err := s.Preload(); err != nil {
		return err
	}
	h := s.Handler()
	w := newSink()
	serveOne := func(req *http.Request) error {
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process handler: status %d: %s", w.status, w.body.Bytes())
		}
		return nil
	}

	// L0 is the kernel on the same snapshot, mapped as sgserve maps it.
	og, err := compactsg.Open(fx.path)
	if err != nil {
		return err
	}
	defer og.Close()
	snap := og.Raw()

	// L0, L1 and L2 take turns frame by frame, each going first in a
	// third of the frames, so drift and ordering weigh on all three
	// alike; the first pass only warms up.
	opt := eval.Options{Workers: 0, BlockSize: 64}
	fo := make([]float64, frameSize)
	var buf bytes.Buffer
	var us [3][]float64
	for pass := 0; pass < 2; pass++ {
		reqs := requests("/v1/eval/bin", serve.BinContentType, fx.bodies)
		for i := 0; i < frameCount; i++ {
			for j := 0; j < 3; j++ {
				layer := (i + j) % 3
				t0 := time.Now()
				switch layer {
				case 0:
					eval.Batch(snap, fx.frames[i], fo, opt)
					err = sameBits("frame value", fo, fx.refs[i])
				case 1:
					if err = serveOne(reqs[i]); err == nil {
						err = checkFrame(w.body.Bytes(), fx.refs[i])
					}
				case 2:
					if _, err = c.post(srv.url("/v1/eval/bin"), serve.BinContentType, fx.bodies[i], &buf); err == nil {
						err = checkFrame(buf.Bytes(), fx.refs[i])
					}
				}
				d := time.Since(t0)
				if err != nil {
					return err
				}
				if pass == 1 {
					us[layer] = append(us[layer], float64(d.Nanoseconds())/1e3)
				}
			}
		}
	}
	l0, l1, l2 := median(us[0]), median(us[1]), median(us[2])
	reqs := requests("/v1/eval/bin", serve.BinContentType, fx.bodies)
	allocs, err := mallocs(frameCount, func(i int) error { return serveOne(reqs[i]) })
	if err != nil {
		return err
	}
	r.set("serve.handler_us", l1, "us")
	r.set("serve.handler_tax_us", l1-l0, "us")
	r.set("serve.allocs_per_req", allocs, "allocs")
	r.set("serve.loopback_tax_us", l2-l1, "us")
	r.note("serve-batch layers (median us per 64-point frame): L0 kernel %.4g, L1 handler %.4g, L2 loopback %.4g", l0, l1, l2)
	return nil
}

func catalogLayers(o *options, r *result, c *client, ps []*proc, fx *catalogFixture, t *timed) error {
	st := t.st
	sb, sa, pb, pa := t.before[0], t.after[0], t.before[1], t.after[1]
	per1k := func(name string) float64 { return 1000 * delta(sb, sa, name) / float64(st.attempted) }
	r.set("serve.loads_per_1k_req", per1k("sgserve_grid_loads_total"), "count")
	r.set("serve.evictions_per_1k_req", per1k("sgserve_grid_evictions_total"), "count")
	r.set("serve.load_waits_per_1k_req", per1k("sgserve_grid_load_waits_total"), "count")
	r.note("serve.loads_per_1k_req: a 4-of-%d LRU under uniform names predicts about 333", catalogSize)
	r.set("store.hits", delta(sb, sa, "sgserve_store_hits"), "count")
	r.set("store.misses", delta(sb, sa, "sgserve_store_misses"), "count")
	r.set("store.fills", delta(sb, sa, "sgserve_store_fills"), "count")
	r.set("shard.upstream_per_req", delta(pb, pa, "sgproxy_upstream_requests_total")/float64(st.attempted), "ratio")
	r.set("shard.retries", delta(pb, pa, "sgproxy_retries_total"), "count")
	r.set("shard.upstream_failures", delta(pb, pa, "sgproxy_upstream_failures_total"), "count")

	med, _ := stageMedians(t.traces[0], "eval_bin", nil)
	stages(r, "serve.stage.", med, "load", "load_wait")
	med, _ = stageMedians(t.traces[1], "eval", nil)
	stages(r, "shard.stage.", med, "decode", "dispatch", "encode")

	// L2 vs L3 on the same requests: binary n=1 direct and proxied, then
	// JSON proxied. Only grids that stay resident take part, so no cold
	// load lands in one route and not another; the three routes rotate
	// which goes first.
	var reqs []catalogReq
	for _, q := range fx.reqs {
		if q.grid < maxResident {
			reqs = append(reqs, q)
		}
	}
	const n = 600
	var buf bytes.Buffer
	var us [3][]float64
	bins := make([][]byte, n)
	for k := -maxResident; k < n; k++ {
		q := reqs[(k+len(reqs))%len(reqs)]
		if k < 0 {
			q = reqs[0]
			q.grid = k + maxResident // touch each resident grid once
			q.body = jsonPoint(fx.names[q.grid], q.x)
			q.want = referenceValues(fx.grids[q.grid], [][]float64{q.x})[0]
		}
		bin := serve.AppendEvalFrame(nil, fx.names[q.grid], [][]float64{q.x})
		if k >= 0 {
			bins[k] = bin
		}
		for j := 0; j < 3; j++ {
			route := (k + maxResident + j) % 3
			p, path, ctype, body := ps[1], "/v1/eval/bin", serve.BinContentType, bin
			switch route {
			case 0:
				p = ps[0]
			case 2:
				path, ctype, body = "/v1/eval", "application/json", q.body
			}
			t0 := time.Now()
			_, err := c.post(p.url(path), ctype, body, &buf)
			d := time.Since(t0)
			if err == nil {
				if route == 2 {
					err = checkJSONValue(buf.Bytes(), q.want)
				} else {
					err = checkFrame(buf.Bytes(), []float64{q.want})
				}
			}
			if err != nil {
				return err
			}
			if k >= 0 {
				us[route] = append(us[route], float64(d.Nanoseconds())/1e3)
			}
		}
	}
	direct, proxied, jsonProxied := median(us[0]), median(us[1]), median(us[2])
	r.set("shard.hop_us", proxied-direct, "us")
	r.set("shard.json_us", jsonProxied-proxied, "us")
	r.note("proxy-single layers (median us per 1-point request): L2 direct bin %.4g, L3 proxied bin %.4g, L3 proxied JSON %.4g", direct, proxied, jsonProxied)

	// The proxy's own allocations, in process, against the live shard.
	p, err := shard.New(shard.Config{ErrorLog: quiet}, shard.Topology{Epoch: 1, Shards: []shard.Shard{{ID: "s0", Addr: ps[0].addr}}})
	if err != nil {
		return err
	}
	defer p.Close()
	ph := p.Handler()
	w := newSink()
	preqs := requests("/v1/eval/bin", serve.BinContentType, bins)
	proxyOne := func(i int) error {
		w.reset()
		ph.ServeHTTP(w, preqs[i])
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process proxy: status %d: %s", w.status, w.body.Bytes())
		}
		return nil
	}
	for i := 0; i < 50; i++ { // open the upstream connection pool
		if err := proxyOne(i); err != nil {
			return err
		}
	}
	preqs = requests("/v1/eval/bin", serve.BinContentType, bins)
	allocs, err := mallocs(n, proxyOne)
	if err != nil {
		return err
	}
	r.set("shard.allocs_per_req", allocs, "allocs")

	return storeLayers(o, r, fx)
}

// storeLayers times the store and registry cold-load path in process,
// over the proxy-single catalog's snapshots.
func storeLayers(o *options, r *result, fx *catalogFixture) error {
	st, err := store.Open(store.Config{Dir: filepath.Join(o.workDir, "layer-cache"), Remote: &store.FSRemote{Dir: fx.remote}})
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	for _, key := range fx.keys[:2] {
		obj, err := st.Get(ctx, key) // fill
		if err != nil {
			return err
		}
		obj.Release()
	}
	hit, err := timeUS(500, func() error {
		obj, err := st.Get(ctx, fx.keys[0])
		if err == nil {
			obj.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("store.get_hit_us", hit, "us")

	gs := serve.NewGridSet(1)
	gs.SetStore(st)
	defer gs.Purge()
	for j := 0; j < 2; j++ {
		if err := gs.AddStored(fx.names[j], fx.keys[j]); err != nil {
			return err
		}
	}
	x := []float64{0.3, 0.6, 0.2}
	k := 0
	cold, err := timeUS(300, func() error {
		j := k % 2
		k++
		lease, err := gs.Acquire(ctx, fx.names[j])
		if err != nil {
			return err
		}
		v, err := lease.Grid().Evaluate(x)
		lease.Release()
		if err != nil {
			return err
		}
		return sameBits("cold-load value", []float64{v}, referenceValues(fx.grids[j], [][]float64{x}))
	})
	if err != nil {
		return err
	}
	r.set("serve.cold_load_us", cold, "us")
	r.note("serve.cold_load_us includes one evaluation and its check; with one resident slot every Acquire of the alternating pair cold-loads through a store hit")

	open, err := timeUS(500, func() error {
		og, err := compactsg.Open(fx.paths[0])
		if err != nil {
			return err
		}
		if og.Mode != compactsg.LoadMmap {
			og.Close()
			return fmt.Errorf("snapshot opened as %v, want mmap", og.Mode)
		}
		return og.Close()
	})
	if err != nil {
		return err
	}
	r.set("core.open_mmap_us", open, "us")
	return nil
}

func onlineLayers(o *options, r *result, m *onlineModel, batch [][]float64, round int, trs []*obs.Trace, before, after map[string]float64) error {
	r.set("serve.batch_size_mean", delta(before, after, "sgserve_batch_size_sum")/
		max(1, delta(before, after, "sgserve_batch_size_count")), "points")
	swaps := delta(before, after, "sgserve_grid_swaps_total")
	r.set("serve.batcher_drains_per_swap", delta(before, after, "sgserve_batcher_drains_total")/swaps, "ratio")
	med, _ := stageMedians(trs, "eval", nil)
	stages(r, "serve.stage.", med, "queue_wait")

	// The replica now equals the server's model; time the write path's
	// library calls on it.
	rep := m.replica
	var observe, ref, exp []float64
	var snap *core.Grid
	var err error
	for i := 0; i < 40; i++ {
		ys := roundValues(batch, round+i)
		t0 := time.Now()
		if _, _, err := rep.ObserveBatch(batch, ys); err != nil {
			return err
		}
		t1 := time.Now()
		rep.RefineDetailed(onlineEps, onlineRefineMax)
		t2 := time.Now()
		if snap, err = rep.ExportCompact(); err != nil {
			return err
		}
		t3 := time.Now()
		observe = append(observe, float64(t1.Sub(t0).Nanoseconds())/float64(len(batch)))
		ref = append(ref, float64(t2.Sub(t1).Nanoseconds())/1e3)
		exp = append(exp, float64(t3.Sub(t2).Nanoseconds())/1e3)
	}
	r.set("adaptive.observe_ns_per_point", median(observe), "ns")
	r.set("adaptive.refine_us", median(ref), "us")
	r.set("adaptive.export_us", median(exp), "us")
	r.set("adaptive.model_points", float64(rep.Points()), "count")

	paths := [2]string{filepath.Join(o.workDir, "swap-a.sg"), filepath.Join(o.workDir, "swap-b.sg")}
	k := 0
	write, err := timeUS(100, func() error {
		err := writeSnapshot(paths[k%2], snap)
		k++
		return err
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		return err
	}
	r.set("core.snapshot_write_us", write, "us")
	r.set("core.snapshot_bytes", float64(fi.Size()), "bytes")

	gs := serve.NewGridSet(8)
	defer gs.Purge()
	k = 0
	swap, err := timeUS(200, func() error {
		_, err := gs.Swap(onlineName, paths[k%2], 0)
		k++
		return err
	})
	if err != nil {
		return err
	}
	r.set("serve.swap_us", swap, "us")
	return nil
}
