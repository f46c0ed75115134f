package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"compactsg/internal/core"
	"compactsg/internal/hier"
	"compactsg/internal/obs"
	"compactsg/internal/serve"
	"compactsg/internal/store"
	"compactsg/internal/workload"
)

// writeSnapshot saves a hierarchized grid as an SGC2 snapshot file.
func writeSnapshot(path string, g *core.Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteSnapshot(f, core.SnapCompressed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchFixture is serve-batch's input: the kernel grid as a snapshot
// file, frameCount 64-point frames drawn from the seed, and the
// reference value of every point.
type batchFixture struct {
	path   string
	grid   *core.Grid
	frames [][][]float64
	bodies [][]byte
	refs   [][]float64
}

func newBatchFixture(o *options, g *core.Grid) (*batchFixture, error) {
	if g == nil {
		desc, err := core.NewDescriptor(kernelDim, kernelLevel)
		if err != nil {
			return nil, err
		}
		g = core.NewGrid(desc)
		g.Fill(kernelFunc)
		hier.Parallel(g, 0)
	}
	fx := &batchFixture{path: filepath.Join(o.workDir, "field.sg"), grid: g}
	if err := writeSnapshot(fx.path, g); err != nil {
		return nil, err
	}
	pts := workload.Points(o.seed, frameSize*frameCount, kernelDim)
	flat := referenceValues(g, pts)
	if o.wrongRef {
		corrupt(flat)
	}
	for f := 0; f < frameCount; f++ {
		frame := pts[f*frameSize : (f+1)*frameSize]
		fx.frames = append(fx.frames, frame)
		fx.bodies = append(fx.bodies, serve.AppendEvalFrame(nil, "field", frame))
		fx.refs = append(fx.refs, flat[f*frameSize:(f+1)*frameSize])
	}
	return fx, nil
}

// checkFrame verifies one binary reply against its reference values.
func checkFrame(reply []byte, want []float64) error {
	got, err := serve.ParseValuesFrame(reply)
	if err != nil {
		return err
	}
	return sameBits("frame value", got, want)
}

// setupServer starts a server stack reps times and keeps the last one;
// ready must return once every grid has answered its first evaluation.
// It returns the median start-to-ready time in seconds.
func setupServer(o *options, start func() ([]*proc, error), ready func([]*proc) error) ([]*proc, float64, error) {
	var setups []float64
	for {
		t0 := time.Now()
		ps, err := start()
		if err != nil {
			return nil, 0, err
		}
		if err := ready(ps); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) == setupReps(o) {
			return ps, median(setups), nil
		}
		for _, p := range ps {
			p.stop()
		}
	}
}

// finish completes an untraced server run: the window's read-path
// metrics plus setup_s and rss_mb.
func finish(r, win *result, setup float64, ps []*proc) error {
	rss, err := peakRSS(ps)
	if err != nil {
		return err
	}
	win.set("setup_s", setup, "s")
	win.set("rss_mb", rss, "MB")
	win.textOnly("latency_p99_ms")
	r.merge(win)
	return nil
}

// peakRSS sums VmHWM over the processes under test.
func peakRSS(ps []*proc) (float64, error) {
	t := 0.0
	for _, p := range ps {
		v, err := hwmMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += v
	}
	return t, nil
}

// warmUp is how long a run drives load before its timed window.
func warmUp(o *options, full time.Duration) time.Duration {
	if o.trace {
		return full / 4
	}
	return full
}

// runServeBatch: sgserve with default flags serves the kernel grid
// (mmap); two connections send 64-point binary frames in a closed loop.
func runServeBatch(o *options, r *result) error {
	fx, err := newBatchFixture(o, nil)
	if err != nil {
		return err
	}
	workingSet("serve-batch snapshot payload", fx.grid.MemoryBytes())
	c := newClient(2)
	defer c.close()
	ps, setup, err := setupServer(o,
		func() ([]*proc, error) {
			p, err := startProc(o, "sgserve", "-grid", "field="+fx.path)
			return []*proc{p}, err
		},
		func(ps []*proc) error {
			if err := ps[0].waitHealthy(c, 30*time.Second); err != nil {
				return err
			}
			reply, err := postRaw(c, ps[0].url("/v1/eval/bin"), serve.BinContentType, fx.bodies[0])
			if err != nil {
				return err
			}
			return checkFrame(reply, fx.refs[0])
		})
	if err != nil {
		return err
	}
	srv := ps[0]
	bufs := [2]bytes.Buffer{}
	do := func(w, k int) (int, string, error) {
		i := (2*k + w) % frameCount
		id, err := c.post(srv.url("/v1/eval/bin"), serve.BinContentType, fx.bodies[i], &bufs[w])
		if err != nil {
			return 0, "", err
		}
		return frameSize, id, checkFrame(bufs[w].Bytes(), fx.refs[i])
	}
	if _, err := closedLoop(warmUp(o, time.Second), 2, false, do); err != nil {
		return err
	}
	t, err := measured(o, r, c, []*proc{srv}, do, "eval_points_per_s")
	if err != nil {
		return err
	}
	evaluated := delta(t.before[0], t.after[0], "sgserve_points_evaluated_total")
	r.expect("serve-batch sgserve_points_evaluated_total", evaluated == float64(t.st.points),
		"delta %.0f, points answered %d", evaluated, t.st.points)
	if !o.trace {
		return finish(r, t.win, setup, ps)
	}
	return batchLayers(r, c, srv, fx, t)
}

// timed is what measured returns: the window's read-path metrics and
// load, each process's /metrics around it and, in a traced run, each
// process's trace ring pulled right after it.
type timed struct {
	win           *result
	st            *loadStats
	before, after []map[string]float64
	traces        [][]*obs.Trace
}

// measured runs the timed window. When the run reports trace overhead,
// untraced half-windows run before and after the traced one, so drift
// weighs on both sides alike.
func measured(o *options, r *result, c *client, ps []*proc, do func(w, k int) (int, string, error), rate string) (*timed, error) {
	var untraced *loadStats
	var err error
	if o.overhead {
		if untraced, err = closedLoop(o.window/2, 2, false, do); err != nil {
			return nil, err
		}
	}
	t := &timed{win: newResult()}
	if t.before, err = scrapeAll(c, ps); err != nil {
		return nil, err
	}
	if t.st, err = closedLoop(o.window, 2, o.trace, do); err != nil {
		return nil, err
	}
	if t.after, err = scrapeAll(c, ps); err != nil {
		return nil, err
	}
	t.st.report(t.win)
	if !o.trace {
		return t, nil
	}
	for _, p := range ps {
		trs, err := traces(c, p)
		if err != nil {
			return nil, err
		}
		t.traces = append(t.traces, trs)
	}
	r.attempted += t.st.attempted
	r.failed += t.st.failed
	r.notes = append(r.notes, t.win.notes...)
	if o.overhead {
		tail, err := closedLoop(o.window/2, 2, false, do)
		if err != nil {
			return nil, err
		}
		untraced.add(tail)
		u := newResult()
		untraced.report(u)
		r.named(u, t.win, rate)
	}
	return t, nil
}

func scrapeAll(c *client, ps []*proc) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(ps))
	for i, p := range ps {
		m, err := scrape(c, p)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// The proxy-single catalog: six distinct d=3 level-5 grids, four of
// which fit in the shard's registry.
const (
	catalogSize  = 6
	catalogDim   = 3
	catalogLevel = 5
	maxResident  = 4
	singleCount  = 8192 // distinct single-point requests, cycled
)

// catalogFixture is proxy-single's input: the catalog's snapshots in a
// local-directory remote tier under their store keys, and a request
// sequence (grid name uniform by seed, point by seed) with references.
type catalogFixture struct {
	remote string
	names  []string
	keys   []string
	grids  []*core.Grid
	paths  []string
	reqs   []catalogReq
}

type catalogReq struct {
	grid int
	x    []float64
	body []byte // JSON /v1/eval body
	want float64
}

func newCatalogFixture(o *options) (*catalogFixture, error) {
	fx := &catalogFixture{remote: filepath.Join(o.workDir, "remote")}
	if err := os.MkdirAll(fx.remote, 0o755); err != nil {
		return nil, err
	}
	desc, err := core.NewDescriptor(catalogDim, catalogLevel)
	if err != nil {
		return nil, err
	}
	for j := 0; j < catalogSize; j++ {
		scale := 1 + float64(j)/8
		g := core.NewGrid(desc)
		g.Fill(func(x []float64) float64 { return scale * kernelFunc(x) })
		hier.Iterative(g)
		tmp := filepath.Join(fx.remote, fmt.Sprintf("grid%d.tmp", j))
		if err := writeSnapshot(tmp, g); err != nil {
			return nil, err
		}
		key, err := store.KeyOfFile(tmp)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(fx.remote, key+".sg")
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
		fx.names = append(fx.names, fmt.Sprintf("g%d", j))
		fx.keys = append(fx.keys, key)
		fx.grids = append(fx.grids, g)
		fx.paths = append(fx.paths, path)
	}
	rng := rand.New(rand.NewSource(o.seed))
	pts := workload.Points(o.seed, singleCount, catalogDim)
	for k, x := range pts {
		j := rng.Intn(catalogSize)
		fx.reqs = append(fx.reqs, catalogReq{
			grid: j, x: x, body: jsonPoint(fx.names[j], x),
			want: referenceValues(fx.grids[j], [][]float64{x})[0],
		})
		if o.wrongRef && k == 0 {
			fx.reqs[0].want = math.Nextafter(fx.reqs[0].want, math.Inf(1))
		}
	}
	return fx, nil
}

// checkJSONValue verifies a {"value": v} reply bit for bit; JSON's
// shortest float formatting round-trips exactly.
func checkJSONValue(reply []byte, want float64) error {
	var v struct {
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(reply, &v); err != nil || v.Value == nil {
		return fmt.Errorf("bad eval reply %q: %v", reply, err)
	}
	if math.Float64bits(*v.Value) != math.Float64bits(want) {
		return wrongf("value %v, reference %v", *v.Value, want)
	}
	return nil
}

// startCatalogStack starts one store-backed sgserve shard (empty cache
// directory, local-directory remote, -max-grids 4) and sgproxy in
// front of it, both with default flags otherwise.
func startCatalogStack(o *options, c *client, fx *catalogFixture, rep *int) ([]*proc, error) {
	*rep++
	args := []string{"-shard-id", "s0", "-trusted-proxies", "127.0.0.0/8",
		"-store-dir", filepath.Join(o.workDir, fmt.Sprintf("cache%d", *rep)),
		"-remote", fx.remote, "-max-grids", fmt.Sprint(maxResident)}
	for j, n := range fx.names {
		args = append(args, "-grid", n+"=store:"+fx.keys[j])
	}
	shard, err := startProc(o, "sgserve", args...)
	if err != nil {
		return nil, err
	}
	// The proxy starts once its shard answers, as an operator would
	// start it; otherwise its first health probe can miss the shard and
	// ready waits a whole probe interval.
	if err := shard.waitHealthy(c, 30*time.Second); err != nil {
		return nil, err
	}
	proxy, err := startProc(o, "sgproxy", "-shard", "s0="+shard.addr)
	if err != nil {
		return nil, err
	}
	return []*proc{shard, proxy}, nil
}

// runProxySingle: sgproxy (one shard) → store-backed sgserve; two
// connections send 1-point JSON evaluations over a six-grid catalog of
// which four stay resident, so about a third of requests cold-load.
func runProxySingle(o *options, r *result) error {
	fx, err := newCatalogFixture(o)
	if err != nil {
		return err
	}
	workingSet(fmt.Sprintf("proxy-single catalog, %d of %d grids resident", maxResident, catalogSize),
		int64(maxResident)*fx.grids[0].MemoryBytes())
	c := newClient(2)
	defer c.close()
	rep := 0
	ps, setup, err := setupServer(o,
		func() ([]*proc, error) { return startCatalogStack(o, c, fx, &rep) },
		func(ps []*proc) error {
			for _, p := range ps {
				if err := p.waitHealthy(c, 30*time.Second); err != nil {
					return err
				}
			}
			for j := range fx.names {
				x := []float64{0.5, 0.25, 0.75}
				reply, err := postRaw(c, ps[1].url("/v1/eval"), "application/json", jsonPoint(fx.names[j], x))
				if err != nil {
					return err
				}
				if err := checkJSONValue(reply, referenceValues(fx.grids[j], [][]float64{x})[0]); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	proxy := ps[1]
	bufs := [2]bytes.Buffer{}
	do := func(w, k int) (int, string, error) {
		q := &fx.reqs[(2*k+w)%singleCount]
		id, err := c.post(proxy.url("/v1/eval"), "application/json", q.body, &bufs[w])
		if err != nil {
			return 0, "", err
		}
		return 1, id, checkJSONValue(bufs[w].Bytes(), q.want)
	}
	if _, err := closedLoop(warmUp(o, 2*time.Second), 2, false, do); err != nil {
		return err
	}
	t, err := measured(o, r, c, ps, do, "req_per_s")
	if err != nil {
		return err
	}
	st := t.st
	sb, sa, pb, pa := t.before[0], t.after[0], t.before[1], t.after[1]
	r.expect("proxy-single sgserve_points_evaluated_total", delta(sb, sa, "sgserve_points_evaluated_total") == float64(st.points),
		"delta %.0f, points answered %d", delta(sb, sa, "sgserve_points_evaluated_total"), st.points)
	r.expect("proxy-single upstream requests = client requests", delta(pb, pa, "sgproxy_upstream_requests_total") == float64(st.attempted),
		"upstream %.0f, client %d", delta(pb, pa, "sgproxy_upstream_requests_total"), st.attempted)
	r.expect("proxy-single sgproxy_retries_total = 0", delta(pb, pa, "sgproxy_retries_total") == 0,
		"delta %.0f", delta(pb, pa, "sgproxy_retries_total"))
	r.expect("proxy-single store misses = 0 after warm-up", delta(sb, sa, "sgserve_store_misses") == 0,
		"delta %.0f", delta(sb, sa, "sgserve_store_misses"))
	r.expect("proxy-single registry loads = store hits", delta(sb, sa, "sgserve_grid_loads_total") == delta(sb, sa, "sgserve_store_hits"),
		"loads %.0f, hits %.0f", delta(sb, sa, "sgserve_grid_loads_total"), delta(sb, sa, "sgserve_store_hits"))
	if !o.trace {
		return finish(r, t.win, setup, ps)
	}
	return catalogLayers(o, r, c, ps, fx, t)
}
