package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (sorted in place), by linear
// interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// span is one client-side request record, joined later with the
// server's trace of the same X-Request-Id.
type span struct {
	id    string
	start time.Time
	dur   time.Duration
}

// sample is one answered request: when it completed, counted from the
// start of its window, how long it took and how many points it carried.
type sample struct {
	end, lat time.Duration
	points   int
}

// loadStats is what one closed-loop window measured.
type loadStats struct {
	samples   []sample // successful requests only
	attempted int
	failed    int
	points    int // points in successful requests
	elapsed   time.Duration
	spans     []span // only when tracing
	// busy reports rates per second spent inside the calls rather than
	// per second of wall time: the in-process kernel's calls take
	// turns with work that is not evaluation.
	busy bool
}

// closedLoop drives conns workers, each sending its next request only
// after the previous reply arrived, until the window ends. do sends
// request k of worker w and returns the points it carried and the
// server's request ID; an error wrapping errWrongValue stops the run,
// any other error counts the request as failed.
func closedLoop(window time.Duration, conns int, traced bool, do func(w, k int) (points int, reqID string, err error)) (*loadStats, error) {
	type part struct {
		loadStats
		err error
	}
	parts := make([]part, conns)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				n, id, err := do(w, k)
				d := time.Since(t0)
				p.attempted++
				if errors.Is(err, errWrongValue) {
					p.err = err
					return
				}
				if err != nil {
					p.failed++
					continue
				}
				p.samples = append(p.samples, sample{t0.Add(d).Sub(start), d, n})
				p.points += n
				if traced {
					p.spans = append(p.spans, span{id, t0, d})
				}
			}
		}(w)
	}
	wg.Wait()
	st := &loadStats{elapsed: time.Since(start)}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		st.samples = append(st.samples, p.samples...)
		st.attempted += p.attempted
		st.failed += p.failed
		st.points += p.points
		st.spans = append(st.spans, p.spans...)
	}
	return st, nil
}

// add appends another window of the same load to st.
func (st *loadStats) add(o *loadStats) {
	for _, s := range o.samples {
		s.end += st.elapsed
		st.samples = append(st.samples, s)
	}
	st.attempted += o.attempted
	st.failed += o.failed
	st.points += o.points
	st.elapsed += o.elapsed
	st.spans = append(st.spans, o.spans...)
}

// report stores the read-path end-to-end metrics of a window.
func (st *loadStats) report(r *result) {
	reportSlices(r, st.samples, st.elapsed, st.busy)
	r.attempted += st.attempted
	r.failed += st.failed
	r.note("read path: %d requests in %.3gs, %d failed", st.attempted, st.elapsed.Seconds(), st.failed)
}

// sliceLen is the target length of the slices whose figures a window
// reports the median of.
const sliceLen = 2 * time.Second

// reportSlices cuts a window into equal slices of about sliceLen by
// completion time, computes the read-path figures of each and stores
// their medians, so a stall that hits one slice (a GC pause, a busy
// neighbour on the host) does not move the result. With busy, rates
// are per second spent in the calls rather than per second of wall
// time.
func reportSlices(r *result, ss []sample, elapsed time.Duration, busy bool) {
	n := max(1, int(elapsed/sliceLen))
	length := elapsed / time.Duration(n)
	per := make([][]sample, n)
	for _, s := range ss {
		per[min(n-1, int(s.end/length))] = append(per[min(n-1, int(s.end/length))], s)
	}
	var reqs, points, p50, p90, p99 []float64
	for _, sl := range per {
		secs := length.Seconds()
		if busy {
			secs = 0
			for _, s := range sl {
				secs += s.lat.Seconds()
			}
		}
		if len(sl) == 0 {
			reqs, points = append(reqs, 0), append(points, 0)
			continue
		}
		lat := make([]float64, len(sl))
		pts := 0
		for i, s := range sl {
			lat[i] = float64(s.lat) / 1e6
			pts += s.points
		}
		reqs = append(reqs, float64(len(sl))/secs)
		points = append(points, float64(pts)/secs)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		p99 = append(p99, quantile(lat, 0.99))
	}
	r.set("req_per_s", median(reqs), "1/s")
	r.set("eval_points_per_s", median(points), "points/s")
	r.set("latency_p50_ms", median(p50), "ms")
	r.set("latency_p90_ms", median(p90), "ms")
	r.set("latency_p99_ms", median(p99), "ms")
	r.note("read path: figures are medians over %d slices of %.3gs; a slice holds about %d requests, %d of them beyond its p90 and %d beyond its p99",
		n, length.Seconds(), len(ss)/n, len(ss)/n/10, len(ss)/n/100)
}

// textOnly prints figures of an end-to-end run that are not end-to-end
// metrics and drops them from the result line: they exist on one
// workload only, or spread too widely from run to run to gate on.
// The traced run reports them as per-layer metrics.
func (r *result) textOnly(names ...string) {
	for _, n := range names {
		if m, ok := r.metrics[n]; ok {
			fmt.Printf("figure %-36s %14.6g %s (not gated; per-layer in the traced run)\n", n, m.Value, m.Unit)
			delete(r.metrics, n)
		}
	}
}

// client is one keep-alive HTTP/1.1 client limited to conns
// connections, the load generator's only transport.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole reply into buf. A non-200 status
// is an error carrying the body.
func (c *client) post(url, ctype string, body []byte, buf *bytes.Buffer) (reqID string, err error) {
	resp, err := c.hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.Header.Get("X-Request-Id"), nil
}

func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// jsonPoint renders a single-point /v1/eval body. strconv's shortest
// formatting round-trips every float64 exactly.
func jsonPoint(grid string, x []float64) []byte {
	b := []byte(`{"grid":"` + grid + `","point":[`)
	for t, v := range x {
		if t > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}"...)
}
