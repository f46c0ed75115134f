// Command sgload is a closed-loop load generator for sgserve: c
// workers each keep exactly one request in flight against POST
// /v1/eval (or /v1/eval/batch), and the tool reports throughput and
// the p50/p95/p99 latency profile, so the win from server-side request
// coalescing is measurable in-repo:
//
//	sgload -c 64 -n 20000                     # single-point requests
//	sgload -c 8 -n 500 -mode batch -points 64 # client-side batching
//	sgload -protocol bin -mode batch          # binary frames, /v1/eval/bin
//	sgload -protocol mix                      # each worker rolls json or bin
//	sgload -targets http://:8177,http://:8178 # spread workers across servers
//
// It discovers the grid's dimensionality from GET /v1/grids and, when
// the server exposes them, prints the mean server-side micro-batch
// size observed during the run (from the sgserve_batch_size metric)
// and a per-stage latency breakdown from GET /debug/traces — queue
// wait vs dispatch vs kernel time percentiles, plus how much of the
// server-side latency those stages account for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/obs"
	"compactsg/internal/serve"
	"compactsg/internal/serve/metrics"
	"compactsg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgload", flag.ContinueOnError)
	base := fs.String("url", "http://localhost:8177", "sgserve base URL")
	targetList := fs.String("targets", "", "comma-separated base URLs; workers are spread round-robin across them (overrides -url)")
	grid := fs.String("grid", "", "grid name (default: the only registered grid)")
	conc := fs.Int("c", 64, "concurrent closed-loop workers")
	n := fs.Int("n", 20000, "total requests to send")
	mode := fs.String("mode", "single", "single (one point per /v1/eval request) or batch (/v1/eval/batch)")
	protocol := fs.String("protocol", "json", "wire protocol: json, bin (length-prefixed float64 frames against /v1/eval/bin), or mix (each worker randomly picks json or bin)")
	points := fs.Int("points", 64, "points per request in batch mode")
	seed := fs.Int64("seed", 1, "query point seed (also seeds the mix-protocol roll)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	traces := fs.Bool("traces", true, "pull /debug/traces after the run and report the per-stage breakdown (single-target runs only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "single" && *mode != "batch" {
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	if *protocol != "json" && *protocol != "bin" && *protocol != "mix" {
		return fmt.Errorf("unknown -protocol %q (want json, bin or mix)", *protocol)
	}
	if *conc < 1 || *n < 1 {
		return fmt.Errorf("-c and -n must be ≥ 1")
	}
	targets := []string{*base}
	if *targetList != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetList, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, strings.TrimSuffix(t, "/"))
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("-targets has no usable URLs")
		}
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
		},
	}

	name, dim, err := discoverGrid(client, targets[0], *grid)
	if err != nil {
		return err
	}

	// Pre-render request bodies so the measured loop is I/O only. The
	// binary protocol carries the same points as frames against
	// /v1/eval/bin — one point per frame in single mode, -points per
	// frame in batch mode — so json-vs-bin runs are apples-to-apples.
	// -protocol mix renders both sets; each worker rolls one of them.
	const pool = 512 // distinct query points cycled through
	xs := workload.Points(*seed, pool, dim)
	renderBodies := func(proto string) [][]byte {
		var bodies [][]byte
		switch {
		case proto == "bin" && *mode == "single":
			bodies = make([][]byte, pool)
			for k, x := range xs {
				bodies[k] = serve.AppendEvalFrame(nil, name, [][]float64{x})
			}
		case proto == "bin":
			bodies = make([][]byte, 64)
			for k := range bodies {
				batch := make([][]float64, *points)
				for j := range batch {
					batch[j] = xs[(k**points+j)%pool]
				}
				bodies[k] = serve.AppendEvalFrame(nil, name, batch)
			}
		case *mode == "single":
			bodies = make([][]byte, pool)
			for k, x := range xs {
				bodies[k], _ = json.Marshal(map[string]any{"grid": name, "point": x})
			}
		default:
			bodies = make([][]byte, 64)
			for k := range bodies {
				batch := make([][]float64, *points)
				for j := range batch {
					batch[j] = xs[(k**points+j)%pool]
				}
				bodies[k], _ = json.Marshal(map[string]any{"grid": name, "points": batch})
			}
		}
		return bodies
	}
	// One bodySet per wire protocol in play; workers index into it.
	type bodySet struct {
		proto       string
		path        string
		contentType string
		bodies      [][]byte
	}
	pathFor := func(proto string) (string, string) {
		if proto == "bin" {
			return "/v1/eval/bin", serve.BinContentType
		}
		if *mode == "batch" {
			return "/v1/eval/batch", "application/json"
		}
		return "/v1/eval", "application/json"
	}
	var sets []bodySet
	protos := []string{*protocol}
	if *protocol == "mix" {
		protos = []string{"json", "bin"}
	}
	for _, proto := range protos {
		path, ct := pathFor(proto)
		sets = append(sets, bodySet{proto: proto, path: path, contentType: ct, bodies: renderBodies(proto)})
	}

	type snapshot struct {
		st batchStats
		ok bool
	}
	before := make([]snapshot, len(targets))
	for i, t := range targets {
		before[i].st, before[i].ok = scrapeBatchStats(client, t)
	}

	var (
		next     atomic.Int64
		errCount atomic.Int64
		wg       sync.WaitGroup
	)
	latencies := make([][]time.Duration, *conc)
	mixRand := rand.New(rand.NewSource(*seed))
	workerSet := make([]int, *conc)
	for w := range workerSet {
		if len(sets) > 1 {
			workerSet[w] = mixRand.Intn(len(sets))
		}
	}
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := sets[workerSet[w]]
			url := targets[w%len(targets)] + set.path
			lat := make([]time.Duration, 0, *n / *conc + 1)
			for {
				k := next.Add(1) - 1
				if k >= int64(*n) {
					break
				}
				body := set.bodies[int(k)%len(set.bodies)]
				t0 := time.Now()
				resp, err := client.Post(url, set.contentType, bytes.NewReader(body))
				if err != nil {
					errCount.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCount.Add(1)
					continue
				}
				lat = append(lat, time.Since(t0))
			}
			latencies[w] = lat
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	if len(all) == 0 {
		return fmt.Errorf("all %d requests failed (is sgserve running at %s?)", *n, *base)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	pts := int64(len(all))
	if *mode == "batch" {
		pts *= int64(*points)
	}
	var sum time.Duration
	for _, d := range all {
		sum += d
	}

	fmt.Fprintf(stdout, "grid %q (d=%d)  mode=%s  protocol=%s  c=%d  targets=%d\n",
		name, dim, *mode, *protocol, *conc, len(targets))
	fmt.Fprintf(stdout, "requests   %d ok, %d errors in %.2fs\n", len(all), errCount.Load(), wall.Seconds())
	fmt.Fprintf(stdout, "throughput %.0f req/s, %.0f points/s\n",
		float64(len(all))/wall.Seconds(), float64(pts)/wall.Seconds())
	fmt.Fprintf(stdout, "latency    mean %s  p50 %s  p90 %s  p95 %s  p99 %s  max %s\n",
		fmtDur(sum/time.Duration(len(all))),
		fmtDur(quantile(all, 0.50)), fmtDur(quantile(all, 0.90)),
		fmtDur(quantile(all, 0.95)), fmtDur(quantile(all, 0.99)),
		fmtDur(all[len(all)-1]))

	// Batch-size deltas aggregate across every target (each shard
	// dispatches its own micro-batches).
	var dSum float64
	var dCount uint64
	for i, t := range targets {
		if !before[i].ok {
			continue
		}
		if after, ok := scrapeBatchStats(client, t); ok && after.count > before[i].st.count {
			dSum += after.sum - before[i].st.sum
			dCount += after.count - before[i].st.count
		}
	}
	if dCount > 0 {
		fmt.Fprintf(stdout, "server     mean dispatched batch size %.1f (%d batches across %d target(s))\n",
			dSum/float64(dCount), dCount, len(targets))
	}
	// The per-stage report reads one server's trace ring; with several
	// targets the rings tell several interleaved stories, so skip it.
	if *traces && len(targets) == 1 && *protocol != "mix" {
		handler := "eval"
		if *mode == "batch" {
			handler = "batch"
		}
		if *protocol == "bin" {
			handler = "eval_bin"
		}
		reportStages(client, targets[0], handler, stdout)
	}
	return nil
}

// stageReport is the per-stage view sgload derives from /debug/traces.
var reportedStages = []obs.Stage{
	obs.StageDecode, obs.StageValidate, obs.StageLoad, obs.StageLoadWait,
	obs.StageQueueWait, obs.StageDispatch, obs.StageEval, obs.StageEncode,
}

// reportStages pulls the server's recent traces and prints queue-wait
// vs dispatch vs eval percentiles plus the share of server-side
// latency those three stages explain. Silently skips when the server
// does not expose /debug/traces (old binary or tracing disabled).
func reportStages(client *http.Client, base, handler string, stdout io.Writer) {
	resp, err := client.Get(base + "/debug/traces")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	all, err := obs.ParseTraces(data)
	if err != nil {
		fmt.Fprintf(stdout, "stages     /debug/traces unparseable: %v\n", err)
		return
	}
	var matched []*obs.Trace
	for _, tr := range all {
		if tr.Handler == handler && tr.Status == http.StatusOK {
			matched = append(matched, tr)
		}
	}
	if len(matched) == 0 {
		return
	}

	fmt.Fprintf(stdout, "stages     server-side breakdown of the last %d %s requests (/debug/traces)\n",
		len(matched), handler)
	var totalMean, coveredMean float64
	for _, tr := range matched {
		totalMean += tr.TotalS
		for _, st := range []obs.Stage{obs.StageQueueWait, obs.StageDispatch, obs.StageEval} {
			if v, ok := tr.StageS(st); ok {
				coveredMean += v
			}
		}
	}
	for _, st := range reportedStages {
		var vals []float64
		for _, tr := range matched {
			if v, ok := tr.StageS(st); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		fmt.Fprintf(stdout, "  %-10s p50 %s  p95 %s  p99 %s  (n=%d)\n", st.Name(),
			fmtSecs(floatQuantile(vals, 0.50)), fmtSecs(floatQuantile(vals, 0.95)),
			fmtSecs(floatQuantile(vals, 0.99)), len(vals))
	}
	if totalMean > 0 {
		fmt.Fprintf(stdout, "  coverage   queue_wait+dispatch+eval = %.1f%% of mean server-side latency (%s of %s)\n",
			100*coveredMean/totalMean, fmtSecs(coveredMean/float64(len(matched))),
			fmtSecs(totalMean/float64(len(matched))))
	}
}

func floatQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func fmtSecs(s float64) string {
	return fmtDur(time.Duration(s * float64(time.Second)))
}

// discoverGrid resolves the grid name and dimensionality via
// GET /v1/grids, evaluating one probe point if the dim is not yet
// known server-side (never-loaded grid).
func discoverGrid(client *http.Client, base, want string) (string, int, error) {
	resp, err := client.Get(base + "/v1/grids")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var gr struct {
		Grids []struct {
			Name string `json:"name"`
			Dim  int    `json:"dim"`
		} `json:"grids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return "", 0, fmt.Errorf("decoding /v1/grids: %w", err)
	}
	if len(gr.Grids) == 0 {
		return "", 0, fmt.Errorf("server has no grids registered")
	}
	for _, g := range gr.Grids {
		if want == "" || g.Name == want {
			if g.Dim == 0 {
				return "", 0, fmt.Errorf("grid %q has unknown shape (never loaded); evaluate it once or preload", g.Name)
			}
			return g.Name, g.Dim, nil
		}
	}
	return "", 0, fmt.Errorf("grid %q not registered on the server", want)
}

type batchStats struct {
	sum   float64
	count uint64
}

// scrapeBatchStats pulls sgserve_batch_size_sum/_count from /metrics.
func scrapeBatchStats(client *http.Client, base string) (batchStats, bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return batchStats{}, false
	}
	defer resp.Body.Close()
	m, err := metrics.Parse(resp.Body)
	sum, found := m["sgserve_batch_size_sum"]
	if err != nil || !found {
		return batchStats{}, false
	}
	return batchStats{sum: sum, count: uint64(m["sgserve_batch_size_count"])}, true
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
