package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("reqs_total", "total requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	v := r.NewCounterVec("errs_total", "errors", "handler")
	v.With("eval").Add(2)
	v.With("batch").Inc()
	if got := v.With("eval").Value(); got != 2 {
		t.Fatalf("vec child = %d, want 2", got)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		"reqs_total 5",
		"# HELP errs_total errors",
		`errs_total{handler="batch"} 1`,
		`errs_total{handler="eval"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Children must be sorted by label value for a stable exposition.
	if strings.Index(out, `handler="batch"`) > strings.Index(out, `handler="eval"`) {
		t.Errorf("vec children not sorted:\n%s", out)
	}
}

// TestVecLabelTuplesDoNotCollide: two label tuples that join to the
// same NUL-separated string are still two children (found by
// FuzzMetricsRoundTrip; they used to share one counter).
func TestVecLabelTuplesDoNotCollide(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c_total", "c", "k1", "k2")
	v.With("", "\x00").Inc()
	v.With("\x00", "").Add(2)
	if a, b := v.With("", "\x00").Value(), v.With("\x00", "").Value(); a != 1 || b != 2 {
		t.Fatalf("children hold %d and %d, want 1 and 2", a, b)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("resident", "resident grids")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "resident 2\n") {
		t.Errorf("exposition missing gauge value:\n%s", sb.String())
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-2.565) > 1e-12 {
		t.Fatalf("sum = %g, want 2.565", h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 2`, // cumulative: 0.005 and 0.01 (le is inclusive)
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 2.565",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("lat", "latency", "handler", []float64{1, 2})
	v.With("a").Observe(0.5)
	v.With("b").Observe(3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{handler="a",le="1"} 1`,
		`lat_bucket{handler="b",le="2"} 0`,
		`lat_bucket{handler="b",le="+Inf"} 1`,
		`lat_count{handler="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8}, "")
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", h.Quantile(0.5))
	}
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5 (interpolated)", q)
	}
	if q := h.Quantile(1); q != 1 {
		t.Errorf("p100 = %g, want 1", q)
	}
	h.Observe(100) // above the last bound → clamped to it
	if q := h.Quantile(1); q != 8 {
		t.Errorf("p100 with overflow obs = %g, want 8", q)
	}
}

func TestHistogramQuantileCapped(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8}, "")
	if _, capped := h.QuantileCapped(0.5); capped {
		t.Error("empty histogram reported capped")
	}
	h.Observe(0.5)
	if v, capped := h.QuantileCapped(0.5); capped || math.Abs(v-0.5) > 1e-9 {
		t.Errorf("in-range p50 = (%g, %v), want (0.5, false)", v, capped)
	}
	// Flood the overflow bucket: the median now lands past the last
	// bound, which Quantile silently caps but QuantileCapped flags.
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	v, capped := h.QuantileCapped(0.5)
	if !capped {
		t.Fatal("overflow-bucket median not reported as capped")
	}
	if v != 8 {
		t.Errorf("capped value = %g, want last bound 8", v)
	}
	if q := h.Quantile(0.5); q != 8 {
		t.Errorf("Quantile = %g, want 8 (same value, no signal)", q)
	}
	// A quantile still inside the real buckets stays uncapped
	// (rank 0.05*11 = 0.55 interpolates within the first bucket).
	if v, capped := h.QuantileCapped(0.05); capped || math.Abs(v-0.55) > 1e-9 {
		t.Errorf("p5 = (%g, %v), want (0.55, false)", v, capped)
	}
}

// TestHistogramQuantileProperty checks QuantileCapped against the
// exact order statistics of the same samples, over random bucket sets
// and clustered samples: an uncapped estimate lies in the bucket that
// holds the exact q-quantile and within [min, max] of the samples; a
// capped one is the last bound, with the exact quantile above it.
func TestHistogramQuantileProperty(t *testing.T) {
	// 100 observations of 31 ms used to read p50 = 37.5 ms and p99 =
	// 49.75 ms, above every observation.
	h := newHistogram(DefLatencyBuckets, "")
	for k := 0; k < 100; k++ {
		h.Observe(0.031)
	}
	for _, q := range []float64{0.5, 0.99} {
		if v, capped := h.QuantileCapped(q); v != 0.031 || capped {
			t.Errorf("31 ms × 100: q%g = (%g, %v), want (0.031, false)", q, v, capped)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		bounds := DefLatencyBuckets
		if trial%4 != 0 {
			bounds = make([]float64, 1+rng.Intn(12))
			b := rng.NormFloat64()
			for k := range bounds {
				b += 0.01 + rng.ExpFloat64()
				bounds[k] = b
			}
		}
		h := newHistogram(bounds, "")
		samples := make([]float64, 1+rng.Intn(200))
		center := bounds[rng.Intn(len(bounds))] * (0.5 + rng.Float64())
		spread := math.Abs(center) * rng.Float64() * 0.2
		for k := range samples {
			samples[k] = center + spread*rng.NormFloat64()
			h.Observe(samples[k])
		}
		sort.Float64s(samples)
		n := len(samples)
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			exact := samples[max(1, int(math.Ceil(q*float64(n))))-1]
			i := sort.SearchFloat64s(bounds, exact) // the bucket holding it
			v, capped := h.QuantileCapped(q)
			if i == len(bounds) {
				if !capped || v != bounds[len(bounds)-1] {
					t.Fatalf("trial %d q%g: exact %g past the last bound, got (%g, %v)", trial, q, exact, v, capped)
				}
				continue
			}
			lo := math.Inf(-1)
			if i > 0 {
				lo = bounds[i-1]
			}
			if capped || v < lo || v > bounds[i] || v < samples[0] || v > samples[n-1] {
				t.Fatalf("trial %d q%g: estimate (%g, %v) outside bucket (%g, %g] or samples [%g, %g]; exact %g",
					trial, q, v, capped, lo, bounds[i], samples[0], samples[n-1], exact)
			}
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "c")
	h := r.NewHistogram("h", "h", DefSizeBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 50))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup", "second")
}

// TestParseRoundTrip: Parse reads back every sample WritePrometheus
// writes, keyed by the series as written, label escapes included.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("reqs_total", "requests").Add(7)
	errs := r.NewCounterVec("errs_total", "errors", "handler", "code")
	errs.With("eval", "404").Add(3)
	errs.With("a b\"c\nd", "500").Inc()
	r.NewGauge("resident", "resident grids").Set(-2.5)
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.01, 0.1})
	for _, v := range []float64{0.005, 0.05, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"reqs_total":                                 7,
		`errs_total{handler="eval",code="404"}`:      3,
		`errs_total{handler="a b\"c\nd",code="500"}`: 1,
		"resident":                      -2.5,
		`lat_seconds_bucket{le="0.01"}`: 1,
		`lat_seconds_bucket{le="0.1"}`:  2,
		`lat_seconds_bucket{le="+Inf"}`: 3,
		"lat_seconds_sum":               h.Sum(),
		"lat_seconds_count":             3,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for series, v := range want {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", series, g, ok, v)
		}
	}
	for _, bad := range []string{"novalue\n", "x{k=\"v w\"}\n", "x notanumber\n"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", bad)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("e", "e", "k").With(`a"b\c`).Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `e{k="a\"b\\c"} 1`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

// FuzzMetricsRoundTrip sends label values of any valid UTF-8 (space,
// quote, backslash and newline included) and arbitrary values through a
// counter vec, a gauge vec and a histogram vec, then WritePrometheus and
// Parse. Every series must come back, its labels unescaped to the values
// set and its value bit-identical. The text format has one NaN, so any
// NaN matches any NaN.
func FuzzMetricsRoundTrip(f *testing.F) {
	// TestParseRoundTrip's cases.
	f.Add("eval", "404", uint64(3), -2.5, 0.005)
	f.Add("a b\"c\nd", "500", uint64(1), 0.05, 3.0)
	f.Add("", "x", uint64(7), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, a, b string, n uint64, g, h float64) {
		if !utf8.ValidString(a) || !utf8.ValidString(b) {
			t.Skip()
		}
		r := NewRegistry()
		cv := r.NewCounterVec("c_total", "counter", "k1", "k2")
		cv.With(a, b).Add(n)
		cv.With(b, a).Add(n/2 + 1)
		gv := r.NewGaugeVec("g", "gauge", "k")
		gv.With(a).Set(g)
		gv.With(b).Set(h)
		hv := r.NewHistogramVec("h_seconds", "histogram", "k", []float64{0.01, 0.1, 1})
		hv.With(a).Observe(g)
		hv.With(a).Observe(h)

		series := func(name string, labels ...string) string { return name + fmt.Sprintf("%q", labels) }
		want := map[string]float64{}
		if a == b {
			want[series("c_total", "k1", a, "k2", b)] = float64(n + n/2 + 1)
		} else {
			want[series("c_total", "k1", a, "k2", b)] = float64(n)
			want[series("c_total", "k1", b, "k2", a)] = float64(n/2 + 1)
		}
		want[series("g", "k", a)] = g
		want[series("g", "k", b)] = h // the later Set wins when a == b
		for _, le := range []float64{0.01, 0.1, 1} {
			c := 0
			for _, v := range []float64{g, h} {
				if v <= le {
					c++
				}
			}
			want[series("h_seconds_bucket", "k", a, "le", fmt.Sprint(le))] = float64(c)
		}
		want[series("h_seconds_bucket", "k", a, "le", "+Inf")] = 2
		sum := 0.0
		sum += g
		sum += h
		want[series("h_seconds_sum", "k", a)] = sum
		want[series("h_seconds_count", "k", a)] = 2

		var sb strings.Builder
		r.WritePrometheus(&sb)
		parsed, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("Parse: %v\n%s", err, sb.String())
		}
		got := map[string]float64{}
		for key, v := range parsed {
			name, labels, ok := decodeSeries(key)
			if !ok {
				t.Fatalf("series %q does not decode", key)
			}
			got[series(name, labels...)] = v
		}
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, want %d:\n%s", len(got), len(want), sb.String())
		}
		for k, w := range want {
			v, ok := got[k]
			if !ok || (math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w))) {
				t.Fatalf("series %s = %v (present %v), want %v:\n%s", k, v, ok, w, sb.String())
			}
		}
	})
}

// decodeSeries splits a series as Parse keys it into its name and its
// label names and values, undoing the exposition's label escapes.
func decodeSeries(s string) (name string, labels []string, ok bool) {
	name, rest, found := strings.Cut(s, "{")
	if !found {
		return s, nil, true
	}
	rest, found = strings.CutSuffix(rest, "}")
	for found && rest != "" {
		var k string
		if k, rest, found = strings.Cut(rest, `="`); !found {
			break
		}
		var v strings.Builder
		j := 0
		for ; j < len(rest) && rest[j] != '"'; j++ {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				j++
				if c = rest[j]; c == 'n' {
					c = '\n'
				} else if c != '\\' && c != '"' {
					return "", nil, false
				}
			}
			v.WriteByte(c)
		}
		if j == len(rest) {
			return "", nil, false
		}
		labels = append(labels, k, v.String())
		rest = strings.TrimPrefix(rest[j+1:], ",")
	}
	return name, labels, found
}
