package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/core"
)

// writeScaledGrid writes a compressed grid file of scale·(x0+x1+…) so
// swapped versions are distinguishable by value.
func writeScaledGrid(t *testing.T, dir, name string, dim, level int, scale float64) (string, *compactsg.Grid) {
	t.Helper()
	g, err := compactsg.New(dim, level)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return scale * s
	})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestSwapInstallsNewVersionAndRejectsStale(t *testing.T) {
	dir := t.TempDir()
	p1, ref1 := writeScaledGrid(t, dir, "v1.sg", 2, 3, 1)
	p2, ref2 := writeScaledGrid(t, dir, "v2.sg", 2, 3, 2)

	s := NewGridSet(4)
	var swaps []uint64
	s.OnSwap = func(name string, v uint64) { swaps = append(swaps, v) }
	if err := s.Add("g", p1); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.25, 0.5}
	g, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ref1.Evaluate(x); mustEval(t, g, x) != want {
		t.Fatal("initial load serves wrong file")
	}
	if v := s.Version("g"); v != 0 {
		t.Fatalf("static version = %d, want 0", v)
	}

	// Auto-bump swap installs version 1 and the new values serve.
	v, err := s.Swap("g", p2, 0)
	if err != nil || v != 1 {
		t.Fatalf("Swap = %d, %v; want 1, nil", v, err)
	}
	g, err = s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ref2.Evaluate(x); mustEval(t, g, x) != want {
		t.Fatal("swap did not install the new file")
	}

	// Stale explicit versions are rejected and change nothing.
	if _, err := s.Swap("g", p1, 1); !errors.Is(err, ErrStaleSwap) {
		t.Fatalf("re-swap version 1: err = %v, want ErrStaleSwap", err)
	}
	if v := s.Version("g"); v != 1 {
		t.Fatalf("version after stale swap = %d, want 1", v)
	}
	// A gap is fine; monotonicity is all that matters.
	if v, err := s.Swap("g", p1, 7); err != nil || v != 7 {
		t.Fatalf("Swap(7) = %d, %v", v, err)
	}
	// Swap may register brand-new names.
	if v, err := s.Swap("fresh", p2, 0); err != nil || v != 1 {
		t.Fatalf("Swap(fresh) = %d, %v", v, err)
	}
	if _, err := s.Get("fresh"); err != nil {
		t.Fatal(err)
	}
	if got := s.Versions(); got["g"] != 7 || got["fresh"] != 1 {
		t.Fatalf("Versions() = %v", got)
	}
	if len(swaps) != 3 {
		t.Fatalf("OnSwap fired %d times, want 3", len(swaps))
	}
	// A bad file never displaces the serving version.
	bad := filepath.Join(dir, "bad.sg")
	os.WriteFile(bad, []byte("junk"), 0o644)
	if _, err := s.Swap("g", bad, 0); err == nil {
		t.Fatal("swap of a corrupt file succeeded")
	}
	if v := s.Version("g"); v != 7 {
		t.Fatalf("version after failed swap = %d, want 7", v)
	}
	s.Purge()
}

func mustEval(t *testing.T, g *compactsg.Grid, x []float64) float64 {
	t.Helper()
	v, err := g.Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSwapOldVersionServesLeases: a lease acquired before the swap
// keeps reading the old instance, and the old instance retires (and
// unmaps) only after that lease releases.
func TestSwapOldVersionServesLeases(t *testing.T) {
	baseline := core.ActiveMappings()
	dir := t.TempDir()
	p1, ref1 := writeScaledGrid(t, dir, "v1.sg", 2, 3, 1)
	p2, ref2 := writeScaledGrid(t, dir, "v2.sg", 2, 3, 2)

	s := NewGridSet(4)
	retired := make(chan string, 4)
	s.OnRetire = func(name string, _ *compactsg.Grid) { retired <- name }
	if err := s.Add("g", p1); err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire(t.Context(), "g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("g", p2, 0); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.75, 0.25}
	// The lease still reads version 0's values...
	if want, _ := ref1.Evaluate(x); mustEval(t, lease.Grid(), x) != want {
		t.Fatal("leased instance changed under the swap")
	}
	// ...while new acquires see version 1.
	if g, _ := s.Get("g"); mustEval(t, g, x) != mustEvalRef(t, ref2, x) {
		t.Fatal("fresh Get still serves the displaced version")
	}
	select {
	case name := <-retired:
		t.Fatalf("instance %q retired while leased", name)
	case <-time.After(20 * time.Millisecond):
	}
	lease.Release()
	select {
	case <-retired:
	case <-time.After(2 * time.Second):
		t.Fatal("displaced instance never retired after the last release")
	}
	s.Purge()
	if n := core.ActiveMappings(); n != baseline {
		t.Fatalf("%d file mappings leaked", n-baseline)
	}
}

// parkedReply is the answer to a coalesced /v1/eval that a test parks
// in an open micro-batch.
type parkedReply struct {
	rec *httptest.ResponseRecorder
	v   float64
}

// parkEval sends x to grid's coalesced /v1/eval and waits until the
// name's coalescer has accepted n calls in all.
func parkEval(t *testing.T, s *Server, grid string, x []float64, n int64) <-chan parkedReply {
	t.Helper()
	done := make(chan parkedReply, 1)
	go func() {
		rec, v := evalOne(t, s.Handler(), "/v1/eval", grid, x)
		done <- parkedReply{rec, v}
	}()
	waitFor(t, "the call to park in the open batch", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		b := s.batchers[grid]
		return b != nil && b.enqueued.Load() == n
	})
	return done
}

// TestSwapKeepsOpenBatchDeadline: neither a swap nor an LRU eviction
// touches the name's coalescer, so a call parked in its open
// micro-batch is answered at the batch's deadline, not at the swap or
// eviction, and read latency does not depend on how often the grid is
// replaced. Close dispatches the batch at once, on the instance
// installed under the name at that moment.
func TestSwapKeepsOpenBatchDeadline(t *testing.T) {
	dir := t.TempDir()
	p1, ref1 := writeScaledGrid(t, dir, "v1.sg", 2, 3, 1)
	p2, ref2 := writeScaledGrid(t, dir, "v2.sg", 2, 3, 2)
	for _, tc := range []struct {
		name  string
		event func(s *Server) error
		want  *compactsg.Grid // the instance installed at dispatch
	}{
		{"swap", func(s *Server) error {
			_, err := s.Grids().Swap("g", p2, 0)
			return err
		}, ref2},
		// With one resident slot, loading h evicts g; Close reloads g.
		{"evict", func(s *Server) error {
			_, err := s.Grids().Get("h")
			return err
		}, ref1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour, MaxResident: 1})
			t.Cleanup(func() { s.Close() })
			if err := s.AddGrid("g", p1); err != nil {
				t.Fatal(err)
			}
			if err := s.AddGrid("h", p2); err != nil {
				t.Fatal(err)
			}
			x := []float64{0.75, 0.25}
			done := parkEval(t, s, "g", x, 1)
			if err := tc.event(s); err != nil {
				t.Fatal(err)
			}
			if n := s.met.evictions.Value(); n != 1 {
				t.Fatalf("%d evictions, want 1: the %s did not displace g", n, tc.name)
			}
			select {
			case r := <-done:
				t.Fatalf("parked call answered at the %s (status %d), before its batch's deadline", tc.name, r.rec.Code)
			case <-time.After(50 * time.Millisecond):
			}
			s.Close()
			r := <-done
			if r.rec.Code != http.StatusOK {
				t.Fatalf("status %d body %s", r.rec.Code, r.rec.Body)
			}
			if want := mustEvalRef(t, tc.want, x); math.Float64bits(r.v) != math.Float64bits(want) {
				t.Fatalf("value %v, want the dispatch-time instance's %v", r.v, want)
			}
		})
	}
}

// TestSwapsKeepOneCoalescer: a name keeps one coalescer across swaps,
// so a swap plus one coalesced read allocates about what the same round
// does uncoalesced, and Close leaves no goroutine behind.
func TestSwapsKeepOneCoalescer(t *testing.T) {
	dir := t.TempDir()
	p1, _ := writeScaledGrid(t, dir, "v1.sg", 3, 5, 1)
	p2, _ := writeScaledGrid(t, dir, "v2.sg", 3, 5, 2)
	x := []float64{0.25, 0.5, 0.75}
	const rounds = 20
	bytesPerRound := func(coalesce bool) float64 {
		before := runtime.NumGoroutine()
		s := New(Config{Coalesce: coalesce, BatchWait: 100 * time.Microsecond})
		if err := s.AddGrid("g", p1); err != nil {
			t.Fatal(err)
		}
		round := func(k int) {
			if _, err := s.Grids().Swap("g", []string{p1, p2}[k%2], 0); err != nil {
				t.Fatal(err)
			}
			if rec, _ := evalOne(t, s.Handler(), "/v1/eval", "g", x); rec.Code != http.StatusOK {
				t.Fatalf("round %d: status %d body %s", k, rec.Code, rec.Body)
			}
		}
		round(1) // warm the pools and create the coalescer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := range rounds {
			round(k)
		}
		runtime.ReadMemStats(&m1)
		if coalesce {
			if n := s.met.batchersNow.Value(); n != 1 {
				t.Errorf("sgserve_batchers_active = %v after %d swaps, want 1", n, rounds+1)
			}
			if n := s.met.drainsTotal.Value(); n != 0 {
				t.Errorf("sgserve_batcher_drains_total = %d before Close, want 0", n)
			}
		}
		s.Close()
		assertNoGoroutineLeak(t, before)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	}
	coalesced, direct := bytesPerRound(true), bytesPerRound(false)
	t.Logf("bytes per swap plus read: %.0f coalesced, %.0f uncoalesced", coalesced, direct)
	if !raceEnabled && coalesced > direct+4096 {
		t.Errorf("a swap plus a coalesced read allocates %.0f B, want at most 4 KiB over the uncoalesced %.0f B", coalesced, direct)
	}
}

// TestSwapToOtherDimensionAnswers400: a call parked on a d=2 grid whose
// name a swap then gives a d=3 grid gets 400, not 500, because its
// point does not fit the instance its batch dispatches on. A d=3 call
// that joined the same open batch after the swap still gets its value.
func TestSwapToOtherDimensionAnswers400(t *testing.T) {
	dir := t.TempDir()
	p2, _ := writeScaledGrid(t, dir, "d2.sg", 2, 3, 1)
	p3, ref3 := writeScaledGrid(t, dir, "d3.sg", 3, 3, 1)
	s := New(Config{Coalesce: true, MaxBatch: 1024, BatchWait: time.Hour})
	t.Cleanup(func() { s.Close() })
	if err := s.AddGrid("g", p2); err != nil {
		t.Fatal(err)
	}
	stale := parkEval(t, s, "g", []float64{0.25, 0.75}, 1)
	if _, err := s.Grids().Swap("g", p3, 0); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.25, 0.5, 0.75}
	fresh := parkEval(t, s, "g", x, 2)
	s.Close()
	if r := <-stale; r.rec.Code != http.StatusBadRequest || !strings.Contains(r.rec.Body.String(), "coordinates") {
		t.Errorf("2-D call after the swap to 3-D: status %d body %s, want 400", r.rec.Code, r.rec.Body)
	}
	r := <-fresh
	if r.rec.Code != http.StatusOK {
		t.Fatalf("3-D call in the same batch: status %d body %s", r.rec.Code, r.rec.Body)
	}
	if want := mustEvalRef(t, ref3, x); math.Float64bits(r.v) != math.Float64bits(want) {
		t.Fatalf("3-D call: value %v, want %v", r.v, want)
	}
}

func mustEvalRef(t *testing.T, g *compactsg.Grid, x []float64) float64 {
	t.Helper()
	v, err := g.Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSwapDiscardsSupersededInflightLoad closes the load/swap race: a
// singleflight load that was reading the old file when a swap installed
// a newer version must discard its result instead of rolling back.
func TestSwapDiscardsSupersededInflightLoad(t *testing.T) {
	baseline := core.ActiveMappings()
	dir := t.TempDir()
	p1, _ := writeScaledGrid(t, dir, "v1.sg", 2, 3, 1)
	p2, ref2 := writeScaledGrid(t, dir, "v2.sg", 2, 3, 2)

	s := NewGridSet(4)
	if err := s.Add("g", p1); err != nil {
		t.Fatal(err)
	}
	// Gate only the FIRST load (the Acquire below); the swap's own load
	// must pass straight through.
	gate := make(chan struct{})
	first := true
	var mu sync.Mutex
	s.LoadHook = func(string) error {
		mu.Lock()
		isFirst := first
		first = false
		mu.Unlock()
		if isFirst {
			<-gate
		}
		return nil
	}

	type got struct {
		v   float64
		err error
	}
	done := make(chan got, 1)
	go func() {
		g, err := s.Get("g") // leads the load of p1, parked on the gate
		if err != nil {
			done <- got{0, err}
			return
		}
		v, err := g.Evaluate([]float64{0.25, 0.5})
		done <- got{v, err}
	}()
	// Wait until that load is in flight, then swap.
	for {
		s.mu.Lock()
		inflight := s.sources["g"].load != nil
		s.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Swap("g", p2, 0); err != nil {
		t.Fatal(err)
	}
	close(gate) // release the superseded load

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if want := mustEvalRef(t, ref2, []float64{0.25, 0.5}); res.v != want {
		t.Fatalf("Get after racing swap = %g, want the swapped version's %g", res.v, want)
	}
	if v := s.Version("g"); v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	s.Purge()
	if n := core.ActiveMappings(); n != baseline {
		t.Fatalf("%d file mappings leaked (superseded load not closed?)", n-baseline)
	}
}

// TestOnlineObserveRefineSwapEndToEnd drives the full write path over
// HTTP: observations build a model, refine exports + hot-swaps it, and
// subsequent evals serve the new version.
func TestOnlineObserveRefineSwapEndToEnd(t *testing.T) {
	baseline := core.ActiveMappings()
	dir := t.TempDir()
	s := New(Config{
		Coalesce:  true,
		BatchWait: time.Millisecond,
		Online: OnlineConfig{
			Enabled:     true,
			InitLevel:   2,
			MaxLevel:    6,
			RefineEps:   1e-6,
			RefineMax:   256,
			SnapshotDir: dir,
		},
	})
	defer s.Close()
	h := s.Handler()
	f := func(x []float64) float64 { return x[0] + 2*x[1] }

	// Round 1: observe the root point only. It commits alone (no
	// parents) and version 1 installs.
	rec := postJSON(t, h, "/v1/grids/live/observe", observeRequest{
		Points: [][]float64{{0.5, 0.5}},
		Values: []float64{f([]float64{0.5, 0.5})},
	})
	if rec.Code != 200 {
		t.Fatalf("observe status %d: %s", rec.Code, rec.Body)
	}
	var or observeResponse
	json.Unmarshal(rec.Body.Bytes(), &or)
	if or.Applied != 1 || or.Awaiting != 4 {
		t.Fatalf("observe response %+v: want applied 1, the 4 level-1 seeds awaiting", or)
	}

	rec = postJSON(t, h, "/v1/grids/live/refine", struct{}{})
	if rec.Code != 200 {
		t.Fatalf("refine status %d: %s", rec.Code, rec.Body)
	}
	var rr RefineResult
	json.Unmarshal(rec.Body.Bytes(), &rr)
	if !rr.Swapped || rr.Version != 1 || rr.Committed != 1 {
		t.Fatalf("refine round 1 = %+v; want swapped version 1", rr)
	}
	if len(rr.Need) != 4 {
		t.Fatalf("need = %v, want the 4 awaiting seeds", rr.Need)
	}

	// The served interpolant now matches the model at the center.
	var er evalResponse
	rec = postJSON(t, h, "/v1/eval", EvalRequest{Grid: "live", Point: []float64{0.5, 0.5}})
	if rec.Code != 200 {
		t.Fatalf("eval status %d: %s", rec.Code, rec.Body)
	}
	json.Unmarshal(rec.Body.Bytes(), &er)
	if want := f([]float64{0.5, 0.5}); math.Abs(er.Value-want) > 1e-12 {
		t.Fatalf("eval after v1 = %g, want %g", er.Value, want)
	}

	// Round 2: answer the steering list; version 2 must serve the full
	// level-2 interpolant.
	vals := make([]float64, len(rr.Need))
	for k, x := range rr.Need {
		vals[k] = f(x)
	}
	rec = postJSON(t, h, "/v1/grids/live/observe", observeRequest{Points: rr.Need, Values: vals})
	if rec.Code != 200 {
		t.Fatalf("observe status %d: %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, h, "/v1/grids/live/refine", struct{}{})
	json.Unmarshal(rec.Body.Bytes(), &rr)
	if !rr.Swapped || rr.Version != 2 {
		t.Fatalf("refine round 2 = %+v; want swapped version 2", rr)
	}
	for _, x := range [][]float64{{0.25, 0.5}, {0.75, 0.5}, {0.5, 0.25}, {0.5, 0.75}} {
		rec = postJSON(t, h, "/v1/eval", EvalRequest{Grid: "live", Point: x})
		json.Unmarshal(rec.Body.Bytes(), &er)
		if want := f(x); math.Abs(er.Value-want) > 1e-12 {
			t.Fatalf("eval(%v) after v2 = %g, want %g", x, er.Value, want)
		}
	}

	// An idle refine (nothing observed, nothing committed) must NOT
	// burn a version.
	rec = postJSON(t, h, "/v1/grids/live/refine", struct{}{})
	json.Unmarshal(rec.Body.Bytes(), &rr)
	if rr.Swapped || rr.Version != 2 {
		t.Fatalf("idle refine = %+v; want no swap, version 2", rr)
	}

	// Version surfaces in /v1/grids and /healthz?detail=1.
	req := httptest_Get(t, h, "/v1/grids")
	var gr gridsResponse
	json.Unmarshal(req.Body.Bytes(), &gr)
	found := false
	for _, gi := range gr.Grids {
		if gi.Name == "live" {
			found = true
			if gi.Version != 2 {
				t.Fatalf("/v1/grids version = %d, want 2", gi.Version)
			}
		}
	}
	if !found {
		t.Fatal("live grid missing from /v1/grids")
	}
	hz := httptest_Get(t, h, "/healthz?detail=1")
	var hd struct {
		Online   bool              `json:"online"`
		Versions map[string]uint64 `json:"versions"`
	}
	json.Unmarshal(hz.Body.Bytes(), &hd)
	if !hd.Online || hd.Versions["live"] != 2 {
		t.Fatalf("healthz detail = %s", hz.Body)
	}

	// Re-observing the center with a new value and refining installs
	// version 3 whose interpolant reflects it.
	rec = postJSON(t, h, "/v1/grids/live/observe", observeRequest{
		Points: [][]float64{{0.5, 0.5}},
		Values: []float64{9.0},
	})
	if rec.Code != 200 {
		t.Fatalf("re-observe status %d: %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, h, "/v1/grids/live/refine", struct{}{})
	json.Unmarshal(rec.Body.Bytes(), &rr)
	if !rr.Swapped || rr.Version != 3 {
		t.Fatalf("refine round 3 = %+v; want swapped version 3", rr)
	}
	rec = postJSON(t, h, "/v1/eval", EvalRequest{Grid: "live", Point: []float64{0.5, 0.5}})
	json.Unmarshal(rec.Body.Bytes(), &er)
	if math.Abs(er.Value-9.0) > 1e-12 {
		t.Fatalf("eval after v3 = %g, want the re-observed 9.0", er.Value)
	}

	// Only the current snapshot file remains in the dir (displaced
	// versions are pruned; their mappings survived until retirement).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "live.v3.sg" {
		names := make([]string, len(ents))
		for k, e := range ents {
			names[k] = e.Name()
		}
		t.Fatalf("snapshot dir holds %v, want [live.v3.sg]", names)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for core.ActiveMappings() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d file mappings leaked after Close", core.ActiveMappings()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOnlineValidation(t *testing.T) {
	s := New(Config{Online: OnlineConfig{Enabled: true, InitLevel: 2, MaxLevel: 4, SnapshotDir: t.TempDir(), MaxPoints: 64}})
	defer s.Close()
	h := s.Handler()

	cases := []struct {
		name   string
		url    string
		body   any
		status int
	}{
		{"bad name", "/v1/grids/..sneaky/observe", observeRequest{Points: [][]float64{{0.5}}, Values: []float64{1}}, 400},
		{"bad char", "/v1/grids/a%2Fb/observe", observeRequest{Points: [][]float64{{0.5}}, Values: []float64{1}}, 400},
		{"no points", "/v1/grids/m/observe", observeRequest{}, 400},
		{"count mismatch", "/v1/grids/m/observe", observeRequest{Points: [][]float64{{0.5}}, Values: []float64{1, 2}}, 400},
		{"refine unknown", "/v1/grids/nope/refine", struct{}{}, 404},
	}
	for _, c := range cases {
		rec := postJSON(t, h, c.url, c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.status, rec.Body)
		}
	}

	// Model dimensionality is pinned by the first observation.
	rec := postJSON(t, h, "/v1/grids/m/observe", observeRequest{Points: [][]float64{{0.5, 0.5}}, Values: []float64{1}})
	if rec.Code != 200 {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, h, "/v1/grids/m/observe", observeRequest{Points: [][]float64{{0.5, 0.5, 0.5}}, Values: []float64{1}})
	if rec.Code != 400 {
		t.Fatalf("dim change accepted: %d %s", rec.Code, rec.Body)
	}

	// The point cap answers 507.
	big := make([][]float64, 70)
	vals := make([]float64, 70)
	for k := range big {
		big[k] = []float64{0.5, 0.5}
		vals[k] = 1
	}
	rec = postJSON(t, h, "/v1/grids/m/observe", observeRequest{Points: big, Values: vals})
	if rec.Code != 507 {
		t.Fatalf("cap overflow: status %d, want 507 (body %s)", rec.Code, rec.Body)
	}

	// Observe/refine are 404 when online mode is off.
	off := New(Config{})
	defer off.Close()
	rec = postJSON(t, off.Handler(), "/v1/grids/m/observe", observeRequest{Points: [][]float64{{0.5}}, Values: []float64{1}})
	if rec.Code != 404 {
		t.Fatalf("observe on offline server: status %d, want 404", rec.Code)
	}
}

// TestOnlineMaxPointsCapsSnapshot: each refine exports the whole
// regular grid of the model's deepest committed level, so MaxPoints
// must bound that level, not only the model's point count. A d=10
// model fed the root and its 7-deep chain in dimension 0 holds a few
// dozen points; uncapped, its first refine installed the 1,862,145-point
// level-8 grid.
func TestOnlineMaxPointsCapsSnapshot(t *testing.T) {
	const dim, maxPoints = 10, 1 << 16
	s := New(Config{Online: OnlineConfig{Enabled: true, MaxPoints: maxPoints, SnapshotDir: t.TempDir()}})
	defer s.Close()
	h := s.Handler()
	var chain observeRequest
	for l := 0; l < 8; l++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = 0.5
		}
		x[0] = math.Ldexp(1, -(l + 1))
		chain.Points = append(chain.Points, x)
		chain.Values = append(chain.Values, 1)
	}
	capped := 0
	req := chain
	for round := 0; round < 4; round++ {
		if rec := postJSON(t, h, "/v1/grids/chain/observe", req); rec.Code != 200 {
			t.Fatalf("round %d: observe status %d: %s", round, rec.Code, rec.Body)
		}
		res, err := s.RefineOnline("chain")
		if err != nil {
			t.Fatal(err)
		}
		capped += res.Capped
		if res.Swapped {
			f, err := os.Open(res.SnapshotPath)
			if err != nil {
				t.Fatal(err)
			}
			info, err := core.ReadSnapshotInfo(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if info.Count > maxPoints {
				t.Fatalf("round %d installed a %d-point level-%d snapshot; MaxPoints is %d", round, info.Count, info.Level, maxPoints)
			}
		}
		req = observeRequest{Points: res.Need, Values: make([]float64, len(res.Need))}
		if len(req.Points) == 0 {
			req = chain
		}
	}
	if capped == 0 {
		t.Fatal("no refinement candidate was counted as capped at the MaxPoints level")
	}
}

// httptest_Get issues a GET against the handler.
func httptest_Get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}
