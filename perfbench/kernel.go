package main

import (
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/eval"
	"compactsg/internal/hier"
	"compactsg/internal/workload"
)

// The kernel grid: d=5 level 10 gaussian, 553,983 points, 4.43 MB of
// coefficients — larger than a 2 MiB per-core L2, so hierarchization
// streams from memory. serve-batch serves the same grid.
const (
	kernelDim   = 5
	kernelLevel = 10
	kernelBatch = 1024
	frameSize   = 64  // points per serve-batch frame
	frameCount  = 256 // distinct serve-batch frames, cycled
)

var kernelFunc = workload.Gaussian.F

// kernelRef is the reference data of the kernel grid, computed with the
// sequential reference kernels (Alg. 6/7 as written, hier.Iterative and
// eval.Iterative) outside every timed region.
type kernelRef struct {
	nodal    []float64  // pristine nodal values
	surplus  *core.Grid // hier.Iterative of nodal
	batch    [][]float64
	batchRef []float64
}

func newKernelRef(seed int64) (*kernelRef, error) {
	desc, err := core.NewDescriptor(kernelDim, kernelLevel)
	if err != nil {
		return nil, err
	}
	g := core.NewGrid(desc)
	g.Fill(kernelFunc)
	k := &kernelRef{nodal: append([]float64(nil), g.Data...), surplus: g}
	hier.Iterative(g)
	k.batch = workload.Points(seed, kernelBatch, kernelDim)
	k.batchRef = referenceValues(g, k.batch)
	return k, nil
}

// referenceValues evaluates xs with the sequential reference kernel,
// split over the cores only to shorten set-up.
func referenceValues(g *core.Grid, xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < len(xs); k += w {
				out[k] = eval.Iterative(g, xs[k])
			}
		}(p)
	}
	wg.Wait()
	return out
}

// sameBits fails with errWrongValue unless got and want are
// Float64bits-identical.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return wrongf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return wrongf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// corrupt nudges one reference value by one ulp (for -wrong-reference).
func corrupt(vals []float64) { vals[0] = math.Nextafter(vals[0], math.Inf(1)) }

// runKernel is in-process library use with library defaults (workers
// auto). Each op restores the nodal values outside the timer,
// hierarchizes the full grid with hier.Parallel, then evaluates the
// fixed 1,024-point batch with Grid.EvaluateBatch.
func runKernel(o *options, r *result) error {
	ref, err := newKernelRef(o.seed)
	if err != nil {
		return err
	}
	if o.wrongRef {
		corrupt(ref.batchRef)
	}
	workingSet("kernel grid coefficients", int64(len(ref.nodal))*8)

	// setup_s: grid build, sampling and first hierarchize.
	var g *compactsg.Grid
	var setups []float64
	for i := 0; i < setupReps(o); i++ {
		t0 := time.Now()
		if g, err = compactsg.New(kernelDim, kernelLevel, compactsg.WithWorkers(0)); err != nil {
			return err
		}
		g.Compress(kernelFunc)
		setups = append(setups, time.Since(t0).Seconds())
		if err := sameBits("surplus after set-up", g.Raw().Data, ref.surplus.Data); err != nil {
			return err
		}
	}

	raw := g.Raw()
	out := make([]float64, kernelBatch)
	// window runs ops for d; its samples are the EvaluateBatch calls,
	// and it returns the time spent in hier.Parallel alongside.
	window := func(d time.Duration) (*loadStats, time.Duration, error) {
		st := &loadStats{busy: true}
		var hierT time.Duration
		start := time.Now()
		for time.Since(start) < d {
			copy(raw.Data, ref.nodal)
			t0 := time.Now()
			hier.Parallel(raw, 0)
			t1 := time.Now()
			_, err := g.EvaluateBatch(ref.batch, out)
			t2 := time.Now()
			if err != nil {
				return nil, 0, err
			}
			hierT += t1.Sub(t0)
			st.samples = append(st.samples, sample{t2.Sub(start), t2.Sub(t1), kernelBatch})
			st.attempted++
			st.points += kernelBatch
			if err := sameBits("surplus", raw.Data, ref.surplus.Data); err != nil {
				return nil, 0, err
			}
			if err := sameBits("value", out, ref.batchRef); err != nil {
				return nil, 0, err
			}
		}
		st.elapsed = time.Since(start)
		return st, hierT, nil
	}

	var untraced *loadStats
	if o.overhead {
		if untraced, _, err = window(o.window / 2); err != nil {
			return err
		}
	}
	st, hierT, err := window(o.window)
	if err != nil {
		return err
	}
	win := newResult()
	st.report(win)
	win.set("hier_points_per_s", float64(st.attempted)*float64(len(ref.nodal))/hierT.Seconds(), "points/s")
	win.note("kernel: %d ops (hier.Parallel + %d-point EvaluateBatch); a request here is one EvaluateBatch call", st.attempted, kernelBatch)
	if !o.trace {
		rss, err := hwmMB(os.Getpid())
		if err != nil {
			return err
		}
		win.set("setup_s", median(setups), "s")
		win.set("rss_mb", rss, "MB")
		win.textOnly("hier_points_per_s", "latency_p99_ms")
		r.merge(win)
		return nil
	}
	r.attempted += st.attempted
	r.notes = append(r.notes, win.notes...)
	r.metrics["hier_points_per_s"] = win.metrics["hier_points_per_s"]
	if o.overhead {
		tail, _, err := window(o.window / 2)
		if err != nil {
			return err
		}
		untraced.add(tail)
		u := newResult()
		untraced.report(u)
		r.named(u, win, "eval_points_per_s")
	}
	return kernelLayers(o, r, g, ref)
}

// setupReps is how many times a run sets up: several in the end-to-end
// run (setup_s is their median), once in the traced run.
func setupReps(o *options) int {
	if o.trace {
		return 1
	}
	return 5
}

// merge adds src's metrics, counts, checks and notes to r.
func (r *result) merge(src *result) {
	for k, v := range src.metrics {
		r.metrics[k] = v
	}
	r.attempted += src.attempted
	r.failed += src.failed
	r.checks = append(r.checks, src.checks...)
	r.notes = append(r.notes, src.notes...)
}

// named records what the traced run reports of its named workload
// only: how much slower the traced window ran than the untraced one on
// the given throughput metric, and the traced window's p99 latency.
func (r *result) named(untraced, traced *result, metric string) {
	u, t := untraced.metrics[metric].Value, traced.metrics[metric].Value
	r.set("bench.trace_overhead_share", (u-t)/u, "ratio")
	r.note("trace overhead on %s: untraced %.6g, traced %.6g", metric, u, t)
	r.metrics["latency_p99_ms"] = traced.metrics["latency_p99_ms"]
}
