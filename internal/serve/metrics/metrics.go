// Package metrics is a minimal, dependency-free instrumentation layer
// for the sparse grid evaluation server: monotonic counters, gauges and
// fixed-bucket histograms registered in a Registry that renders the
// Prometheus text exposition format (version 0.0.4).
//
// The package exists so cmd/sgserve can expose GET /metrics without
// pulling a client library into a stdlib-only module. It implements the
// small subset the server needs — no summaries, no timestamps, one
// optional label per metric family — and all hot-path operations
// (Counter.Add, Histogram.Observe) are lock-free atomics, safe for
// concurrent use from every request handler.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families in registration order and renders
// them in the Prometheus text format.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

type family interface {
	name() string
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name()] {
		panic("metrics: duplicate registration of " + f.name())
	}
	r.names[f.name()] = true
	r.families = append(r.families, f)
}

// WritePrometheus renders every registered family to w.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// Handler returns an http.Handler serving the exposition text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ---------------------------------------------------------------------
// Counter

// A Counter is a monotonically increasing uint64.
type Counter struct {
	n      atomic.Uint64
	labels string // pre-rendered {k="v"} or ""
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

type counterFamily struct {
	fname, help string
	single      *Counter // nil for a vec
	labels      []string
	mu          sync.Mutex
	children    map[string]*Counter
}

func (f *counterFamily) name() string { return f.fname }

func (f *counterFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.fname, f.help, f.fname)
	if f.single != nil {
		fmt.Fprintf(w, "%s %d\n", f.fname, f.single.Value())
		return
	}
	for _, c := range f.sorted() {
		fmt.Fprintf(w, "%s%s %d\n", f.fname, c.labels, c.Value())
	}
}

func (f *counterFamily) sorted() []*Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Counter, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&counterFamily{fname: name, help: help, single: c})
	return c
}

// A CounterVec is a counter family partitioned by one or more labels.
type CounterVec struct{ f *counterFamily }

// NewCounterVec registers a counter family with the given label names
// (at least one).
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: NewCounterVec needs at least one label")
	}
	f := &counterFamily{fname: name, help: help, labels: labels, children: make(map[string]*Counter)}
	r.register(f)
	return &CounterVec{f: f}
}

// With returns (creating on first use) the child for the label values,
// given in registration order.
func (v *CounterVec) With(values ...string) *Counter {
	key := childKey(v.f.fname, v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.children[key]
	if !ok {
		c = &Counter{labels: labelPairs(v.f.labels, values)}
		v.f.children[key] = c
	}
	return c
}

// ---------------------------------------------------------------------
// Gauge

// A Gauge is a float64 that can go up and down.
type Gauge struct {
	bits   atomic.Uint64
	labels string
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type gaugeFamily struct {
	fname, help string
	g           *Gauge // nil for a vec
	labels      []string
	mu          sync.Mutex
	children    map[string]*Gauge
}

func (f *gaugeFamily) name() string { return f.fname }

func (f *gaugeFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.fname, f.help, f.fname)
	if f.g != nil {
		fmt.Fprintf(w, "%s %s\n", f.fname, formatFloat(f.g.Value()))
		return
	}
	for _, g := range f.sorted() {
		fmt.Fprintf(w, "%s%s %s\n", f.fname, g.labels, formatFloat(g.Value()))
	}
}

func (f *gaugeFamily) sorted() []*Gauge {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Gauge, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&gaugeFamily{fname: name, help: help, g: g})
	return g
}

// A GaugeVec is a gauge family partitioned by one or more labels.
type GaugeVec struct{ f *gaugeFamily }

// NewGaugeVec registers a gauge family with the given label names (at
// least one).
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("metrics: NewGaugeVec needs at least one label")
	}
	f := &gaugeFamily{fname: name, help: help, labels: labels, children: make(map[string]*Gauge)}
	r.register(f)
	return &GaugeVec{f: f}
}

// With returns (creating on first use) the child for the label values,
// given in registration order.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := childKey(v.f.fname, v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	g, ok := v.f.children[key]
	if !ok {
		g = &Gauge{labels: labelPairs(v.f.labels, values)}
		v.f.children[key] = g
	}
	return g
}

// ---------------------------------------------------------------------
// Histogram

// A Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
	labels  string
}

// DefLatencyBuckets spans 10µs .. 2.5s, the useful range for a
// loopback evaluation server.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// DefSizeBuckets is a power-of-two ladder for batch sizes.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// DefStageBuckets spans 1µs .. 2.5s: request stages (JSON decode,
// validation, queue wait, dispatch, kernel time) run two decades
// faster than whole requests, so the per-stage histograms need finer
// low-end resolution than DefLatencyBuckets.
var DefStageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// DefLoadBuckets spans 100µs .. 30s, the useful range for grid file
// loads (read + decode), which run from small test grids on a warm
// page cache to multi-GB level-11 grids on cold disk.
var DefLoadBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30,
}

func newHistogram(bounds []float64, labels string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1), // +Inf overflow bucket
		labels: labels,
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets by
// linear interpolation within the containing bucket; observations above
// the last bound report the last bound. It returns 0 with no data.
//
// Callers that gate on the result (sgstress -assert-hot-p50) should use
// QuantileCapped instead: a quantile landing in the +Inf overflow
// bucket is silently capped here, so arbitrarily slow data can still
// "pass" a latency bound equal to the last bucket bound.
func (h *Histogram) Quantile(q float64) float64 {
	v, _ := h.QuantileCapped(q)
	return v
}

// QuantileCapped is Quantile with an explicit cap signal: capped is
// true when the requested quantile lands in the +Inf overflow bucket,
// meaning the true value is >= the last bound and the returned value is
// only a lower bound, not an estimate.
func (h *Histogram) QuantileCapped(q float64) (v float64, capped bool) {
	n := h.total.Load()
	if n == 0 {
		return 0, false
	}
	rank := q * float64(n)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: all we know is v >= last bound.
				return h.bounds[len(h.bounds)-1], true
			}
			hi := h.bounds[i]
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo), false
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1], true
}

type histogramFamily struct {
	fname, help string
	single      *Histogram
	labels      []string
	mu          sync.Mutex
	children    map[string]*Histogram
}

func (f *histogramFamily) name() string { return f.fname }

func (f *histogramFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.fname, f.help, f.fname)
	if f.single != nil {
		writeHistogram(w, f.fname, f.single, "")
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs := make([]*Histogram, len(keys))
	for i, k := range keys {
		hs[i] = f.children[k]
	}
	f.mu.Unlock()
	for _, h := range hs {
		writeHistogram(w, f.fname, h, h.labels)
	}
}

func writeHistogram(w io.Writer, name string, h *Histogram, labels string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// NewHistogram registers and returns an unlabeled histogram with the
// given bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds, "")
	r.register(&histogramFamily{fname: name, help: help, single: h})
	return h
}

// A HistogramVec is a histogram family partitioned by one or more
// labels.
type HistogramVec struct {
	f      *histogramFamily
	bounds []float64
}

// NewHistogramVec registers a histogram family with the given label
// names (at least one). bounds precede the labels' variadic tail, so
// the signature stays compatible with single-label call sites.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64, moreLabels ...string) *HistogramVec {
	labels := append([]string{label}, moreLabels...)
	f := &histogramFamily{fname: name, help: help, labels: labels, children: make(map[string]*Histogram)}
	r.register(f)
	return &HistogramVec{f: f, bounds: append([]float64(nil), bounds...)}
}

// With returns (creating on first use) the child for the label values,
// given in registration order.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := childKey(v.f.fname, v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.children[key]
	if !ok {
		h = newHistogram(v.bounds, labelPairs(v.f.labels, values))
		v.f.children[key] = h
	}
	return h
}

// Parse reads an exposition as WritePrometheus writes it and returns
// every sample's value keyed by its series exactly as written: the
// name, then the label set, escapes included, if it has one.
func Parse(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for n, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the first space outside a quoted label value.
		end, quoted := -1, false
		for i := 0; i < len(line) && end < 0; i++ {
			switch c := line[i]; {
			case quoted && c == '\\':
				i++
			case c == '"':
				quoted = !quoted
			case c == ' ' && !quoted:
				end = i
			}
		}
		if end <= 0 {
			return nil, fmt.Errorf("metrics: line %d: no sample value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[end+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", n+1, err)
		}
		out[line[:end]] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------
// helpers

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders a full label set {k1="v1",k2="v2",...}.
func labelPairs(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// childKey builds the map key for one labeled child and enforces the
// label-arity contract at the call site that violated it.
func childKey(fname string, names, values []string) string {
	if len(values) != len(names) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", fname, len(names), len(values)))
	}
	return strings.Join(values, "\x00")
}

// mergeLabels appends an extra pair to a pre-rendered label set.
func mergeLabels(labels, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
