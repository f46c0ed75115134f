package main

// -swap-chaos: the online write-path scenario. One in-process server
// runs with online refinement enabled while three populations collide:
//
//   - a steering goroutine observes values of a known target and
//     triggers refine → snapshot export → registry hot-swap, over and
//     over, so grid versions churn under live traffic,
//   - a second observer feeds concurrent observation batches into the
//     same model (dirty-counter and model-lock contention),
//   - eval workers hammer the swapping grid over both wire protocols
//     and verify every 200 against the reference decode of SOME
//     version's snapshot file — a value from no installed version means
//     a torn swap (reader saw half-installed state).
//
// Versions must be strictly monotonic, no goroutine may leak, and
// every file mapping must drain after Close: the displaced versions'
// mappings are allowed to live exactly as long as their last lease.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/serve"
)

// versionTable is the append-only ground truth: one reference grid per
// successfully installed version, decoded from the snapshot file by
// copy (never the server's own mapping).
type versionTable struct {
	mu   sync.RWMutex
	vers []uint64
	refs []*compactsg.Grid
}

func (vt *versionTable) add(v uint64, g *compactsg.Grid) error {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if n := len(vt.vers); n > 0 && v <= vt.vers[n-1] {
		return fmt.Errorf("version went backwards: %d after %d", v, vt.vers[n-1])
	}
	vt.vers = append(vt.vers, v)
	vt.refs = append(vt.refs, g)
	return nil
}

// match reports whether some installed version answers r bit for bit.
// Old versions stay acceptable: a response that raced a swap was
// legitimately served by a still-leased displaced instance.
func (vt *versionTable) match(r reply) bool {
	vt.mu.RLock()
	defer vt.mu.RUnlock()
	for _, ref := range vt.refs {
		if verify(ref, r) == nil {
			return true
		}
	}
	return false
}

func swapChaos(cfg config) error {
	h := newHarness(cfg, "swap-chaos", "none: swaps follow every 32-point observation batch")
	dir, err := os.MkdirTemp("", "sgstress-swap")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const name = "live"
	sc := serveConfig(cfg)
	sc.MaxResident = 0 // the one grid swaps; -resident does not apply
	sc.Online = serve.OnlineConfig{
		Enabled:     true,
		InitLevel:   2,
		MaxLevel:    cfg.level,
		RefineEps:   1e-9, // refine everything the budget allows
		RefineMax:   512,
		SnapshotDir: dir,
	}
	srv := serve.New(sc)
	handler := srv.Handler()
	c := client{h: handler, protocol: cfg.protocol, dim: cfg.dim}

	// Every lattice point of the level cap's regular grid is a valid
	// observation target for the model.
	desc, err := core.NewDescriptor(cfg.dim, cfg.level)
	if err != nil {
		return err
	}
	var validPts [][]float64
	desc.VisitPoints(func(_ int64, l, i []int32) {
		x := make([]float64, cfg.dim)
		core.Coords(l, i, x)
		validPts = append(validPts, x)
	})

	vt := &versionTable{}
	var observed, swaps, evals atomic.Uint64

	postJSON := func(url string, body any) (*httptest.ResponseRecorder, error) {
		raw, _ := json.Marshal(body)
		rec := post(context.Background(), handler, url, "application/json", raw)
		if rec.Code != http.StatusOK {
			return rec, fmt.Errorf("POST %s: status %d body %s", url, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec, nil
	}
	observeBatch := func(rng *rand.Rand, n int) error {
		pts := make([][]float64, n)
		vals := make([]float64, n)
		for k := range pts {
			pts[k] = validPts[rng.Intn(len(validPts))]
			vals[k] = bumps(pts[k])
		}
		if _, err := postJSON("/v1/grids/"+name+"/observe", map[string]any{"points": pts, "values": vals}); err != nil {
			return err
		}
		observed.Add(uint64(n))
		return nil
	}

	// Steering: observe → refine → verify the swap → decode the new
	// snapshot into the ground-truth table.
	h.workers("steering", 1, 0, func(rng *rand.Rand, _ uint64) error {
		if err := observeBatch(rng, 32); err != nil {
			return err
		}
		rec, err := postJSON("/v1/grids/"+name+"/refine", struct{}{})
		if err != nil {
			return err
		}
		var rr struct {
			Swapped bool   `json:"swapped"`
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			return fmt.Errorf("refine body %q: %w", rec.Body, err)
		}
		if !rr.Swapped {
			return nil
		}
		// Decode the fresh snapshot by copy — an independent read of
		// the same bytes the server just mapped.
		snap := filepath.Join(dir, fmt.Sprintf("%s.v%d.sg", name, rr.Version))
		sf, err := os.Open(snap)
		if err != nil {
			return fmt.Errorf("swapped snapshot missing: %w", err)
		}
		ref, err := compactsg.LoadAny(sf)
		sf.Close()
		if err != nil {
			return fmt.Errorf("decoding %s: %w", snap, err)
		}
		if err := vt.add(rr.Version, ref); err != nil { // versions strictly increase
			return err
		}
		swaps.Add(1)
		return nil
	})

	// Concurrent observer: keeps the model's write side contended while
	// refines run.
	h.workers("observer", 1, 500, func(rng *rand.Rand, _ uint64) error {
		return observeBatch(rng, 16)
	})

	// Eval workers: every answer must be some installed version's value.
	h.workers("eval", cfg.hot+cfg.cold, 1000, func(rng *rand.Rand, _ uint64) error {
		if swaps.Load() == 0 {
			// Nothing installed yet; the grid may not exist.
			time.Sleep(time.Millisecond)
			return nil
		}
		r, err := c.eval(rng, name, cfg.timeout)
		if err != nil {
			return err
		}
		if err := r.ok(); err != nil {
			return err
		}
		evals.Add(1)
		// A fresh swap can serve before the steering worker (which
		// learns the version from the refine response) has decoded its
		// snapshot into the table. Give the table a moment to catch up
		// before calling it torn.
		for deadline := time.Now().Add(2 * time.Second); !vt.match(r); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("values %v at %v match NO installed version (torn swap?)", r.vals, r.xs)
			}
		}
		return nil
	})
	h.wg.Wait()

	m, err := scrape(handler)
	if err != nil {
		h.fail(err)
	}
	err = h.end(srv.Close)
	fmt.Printf("  %s, dim=%d level-cap=%d, GOMAXPROCS=%d\n", cfg.duration, cfg.dim, cfg.level, runtime.GOMAXPROCS(0))
	fmt.Printf("  observed=%d evals=%d swaps=%d (metrics: observations=%v swaps=%v version=%v)\n",
		observed.Load(), evals.Load(), swaps.Load(), m["sgserve_observations_total"],
		m["sgserve_grid_swaps_total"], m[fmt.Sprintf("sgserve_grid_version{grid=%q}", name)])
	if err != nil {
		return err
	}
	if swaps.Load() == 0 {
		return fmt.Errorf("no hot-swap happened; the scenario did not run (raise -duration)")
	}
	if evals.Load() == 0 {
		return fmt.Errorf("no evaluation was verified against an installed version")
	}
	if got, err := m.need("sgserve_grid_swaps_total"); err != nil {
		return err
	} else if got != float64(swaps.Load()) {
		return fmt.Errorf("sgserve_grid_swaps_total = %v, but the harness saw %d swaps", got, swaps.Load())
	}
	fmt.Println("  PASS")
	return nil
}
