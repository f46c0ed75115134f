package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/adaptive"
	"compactsg/internal/eval"
	"compactsg/internal/obs"
	"compactsg/internal/workload"
)

// The online model: name, shape and sgserve's -online defaults, which
// the in-process replica must mirror exactly.
const (
	onlineName      = "live"
	onlineDim       = 3
	onlineInitLevel = 2
	onlineMaxLevel  = 8
	onlineEps       = 1e-3
	onlineRefineMax = 1024
	onlineBatch     = 256 // points re-observed per writer round
	onlineReads     = 8192
)

var onlineFunc = workload.Gaussian.F

// refineReply is the part of POST /v1/grids/{name}/refine the writer
// reads.
type refineReply struct {
	Version   uint64      `json:"version"`
	Swapped   bool        `json:"swapped"`
	Committed int         `json:"committed"`
	Added     int         `json:"added"`
	Points    int         `json:"points"`
	Need      [][]float64 `json:"need"`
}

// onlineModel drives the server's model and mirrors every write on an
// in-process replica, so each installed version can be recomputed.
type onlineModel struct {
	c        *client
	srv      *proc
	replica  *adaptive.Grid
	observed [][]float64 // every point observed during warm-up
	version  uint64
	points   int
}

func (m *onlineModel) observe(xs [][]float64, ys []float64) error {
	if _, err := postRaw(m.c, m.srv.url("/v1/grids/"+onlineName+"/observe"), "application/json", observeBody(xs, ys)); err != nil {
		return err
	}
	_, _, err := m.replica.ObserveBatch(xs, ys)
	return err
}

func (m *onlineModel) refine() (refineReply, error) {
	var rr refineReply
	body, err := postRaw(m.c, m.srv.url("/v1/grids/"+onlineName+"/refine"), "application/json", []byte("{}"))
	if err != nil {
		return rr, err
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		return rr, fmt.Errorf("refine reply %q: %w", body, err)
	}
	m.replica.RefineDetailed(onlineEps, onlineRefineMax)
	if got := m.replica.Points(); got != rr.Points {
		return rr, fmt.Errorf("replica has %d points, server model %d", got, rr.Points)
	}
	m.version, m.points = rr.Version, rr.Points
	return rr, nil
}

func observeBody(xs [][]float64, ys []float64) []byte {
	b := []byte(`{"points":[`)
	for k, x := range xs {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for t, v := range x {
			if t > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, `],"values":[`...)
	for k, y := range ys {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, y, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

func values(xs [][]float64) []float64 {
	ys := make([]float64, len(xs))
	for k, x := range xs {
		ys[k] = onlineFunc(x)
	}
	return ys
}

// start observes the domain centre and refines once: the first version
// the server can evaluate.
func (m *onlineModel) start() error {
	center := [][]float64{{0.5, 0.5, 0.5}}
	if err := m.observe(center, values(center)); err != nil {
		return err
	}
	m.observed = append(m.observed, center...)
	_, err := m.refine()
	return err
}

// warm answers each refine's need list until the model stops growing:
// a round that commits nothing, adds nothing and needs nothing.
func (m *onlineModel) warm() (rounds int, err error) {
	for {
		rr, err := m.refine()
		if err != nil {
			return rounds, err
		}
		rounds++
		if len(rr.Need) == 0 && rr.Added == 0 && rr.Committed == 0 {
			return rounds, nil
		}
		if len(rr.Need) > 0 {
			if err := m.observe(rr.Need, values(rr.Need)); err != nil {
				return rounds, err
			}
			m.observed = append(m.observed, rr.Need...)
		}
	}
}

// levelSum is the level group of a lattice point of the model.
func levelSum(x []float64) int {
	s := 0
	for _, v := range x {
		k := uint64(math.Round(v * (1 << onlineMaxLevel)))
		s += onlineMaxLevel - 1 - bits.TrailingZeros64(k)
	}
	return s
}

// writerBatch picks the fixed re-observed batch: existing points of the
// deepest level groups first (their children would pass the level cap,
// so re-observing them cannot grow the model), ties shuffled by seed.
func (m *onlineModel) writerBatch(seed int64) [][]float64 {
	pts := append([][]float64(nil), m.observed...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	sort.SliceStable(pts, func(i, j int) bool { return levelSum(pts[i]) > levelSum(pts[j]) })
	if len(pts) > onlineBatch {
		pts = pts[:onlineBatch]
	}
	return pts
}

// roundValues are round r's observations: the function values
// perturbed by a few ulps-scale amounts that change every round, so
// every round is dirty and every refine swaps.
func roundValues(batch [][]float64, r int) []float64 {
	ys := values(batch)
	for k := range ys {
		ys[k] += 1e-9 * float64((r*31+k)%17+1)
	}
	return ys
}

// read is one reader request: the point, the value it returned, and the
// versions that could have served it (lo installed before it was sent,
// hi the newest refine sent before its reply arrived).
type read struct {
	x      []float64
	value  float64
	lo, hi uint64
}

// runOnline: sgserve -online with defaults grows a d=3 model to a
// plateau; then one writer connection observes a fixed 256-point batch
// and refines (export, snapshot, hot-swap) in a loop while one reader
// connection sends 1-point JSON evaluations of the same grid.
func runOnline(o *options, r *result) error {
	c := newClient(2)
	defer c.close()
	var m *onlineModel
	ps, setup, err := setupServer(o,
		func() ([]*proc, error) {
			p, err := startProc(o, "sgserve", "-online")
			return []*proc{p}, err
		},
		func(ps []*proc) error {
			if err := ps[0].waitHealthy(c, 30*time.Second); err != nil {
				return err
			}
			replica, err := adaptive.NewObserved(onlineDim, onlineInitLevel, onlineMaxLevel)
			if err != nil {
				return err
			}
			m = &onlineModel{c: c, srv: ps[0], replica: replica}
			if err := m.start(); err != nil {
				return err
			}
			_, err = postRaw(c, ps[0].url("/v1/eval"), "application/json", jsonPoint(onlineName, []float64{0.5, 0.5, 0.5}))
			return err
		})
	if err != nil {
		return err
	}
	srv := ps[0]
	t0 := time.Now()
	rounds, err := m.warm()
	if err != nil {
		return err
	}
	r.note("online: warm-up took %d refines and %.3gs; plateau at %d points, version %d", rounds, time.Since(t0).Seconds(), m.points, m.version)
	if ex, err := m.replica.ExportCompact(); err == nil {
		workingSet("online exported snapshot", ex.MemoryBytes())
	}
	batch := m.writerBatch(o.seed)
	minLevel := levelSum(batch[len(batch)-1])
	r.note("online: writer batch of %d points, level groups >= %d (cap %d)", len(batch), minLevel, onlineMaxLevel-1)

	reads := workload.Points(o.seed, onlineReads, onlineDim)
	var readBufs [1]bytes.Buffer
	var acked, sent atomic.Uint64
	acked.Store(m.version)
	sent.Store(m.version)
	var log []read
	var logMu sync.Mutex
	readDo := func(record bool) func(w, k int) (int, string, error) {
		return func(w, k int) (int, string, error) {
			x := reads[k%onlineReads]
			lo := acked.Load()
			id, err := c.post(srv.url("/v1/eval"), "application/json", jsonPoint(onlineName, x), &readBufs[0])
			hi := sent.Load()
			if err != nil {
				return 0, "", err
			}
			var v struct {
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal(readBufs[0].Bytes(), &v); err != nil || v.Value == nil {
				return 0, "", fmt.Errorf("bad eval reply %q: %v", readBufs[0].Bytes(), err)
			}
			if record {
				logMu.Lock()
				log = append(log, read{x, *v.Value, lo, hi})
				logMu.Unlock()
			}
			return 1, id, nil
		}
	}

	// writer runs rounds until the deadline and returns its timings.
	type writerStats struct {
		observe, refine []time.Duration
		swapped         int
		pointsFirst     int
		pointsLast      int
	}
	round := 0
	writer := func(window time.Duration) (*writerStats, error) {
		ws := &writerStats{pointsFirst: -1}
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			ys := roundValues(batch, round)
			body := observeBody(batch, ys)
			t0 := time.Now()
			if _, err := postRaw(c, srv.url("/v1/grids/"+onlineName+"/observe"), "application/json", body); err != nil {
				return nil, err
			}
			t1 := time.Now()
			sent.Store(m.version + 1)
			reply, err := postRaw(c, srv.url("/v1/grids/"+onlineName+"/refine"), "application/json", []byte("{}"))
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			var rr refineReply
			if err := json.Unmarshal(reply, &rr); err != nil {
				return nil, fmt.Errorf("refine reply %q: %w", reply, err)
			}
			if !rr.Swapped || rr.Version != m.version+1 {
				return nil, wrongf("round %d: refine answered swapped=%v version %d after %d", round, rr.Swapped, rr.Version, m.version)
			}
			m.version = rr.Version
			acked.Store(rr.Version)
			ws.swapped++
			if ws.pointsFirst < 0 {
				ws.pointsFirst = rr.Points
			}
			ws.pointsLast = rr.Points
			ws.observe = append(ws.observe, t1.Sub(t0))
			ws.refine = append(ws.refine, t2.Sub(t1))
			round++
		}
		return ws, nil
	}
	// window runs writer and reader side by side.
	window := func(d time.Duration, traced, record bool) (*writerStats, *loadStats, error) {
		var ws *writerStats
		var werr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, werr = writer(d)
		}()
		st, err := closedLoop(d, 1, traced, readDo(record))
		wg.Wait()
		if werr != nil {
			return nil, nil, werr
		}
		return ws, st, err
	}

	// Rounds before the timed window (warm-up and any untraced window)
	// are replayed on the replica before it serves as the reference.
	firstRound := round
	if _, _, err := window(warmUp(o, time.Second), false, false); err != nil {
		return err
	}
	var untraced *loadStats
	if o.overhead {
		if _, untraced, err = window(o.window/2, false, false); err != nil {
			return err
		}
	}
	for ; firstRound < round; firstRound++ {
		if _, _, err := m.replica.ObserveBatch(batch, roundValues(batch, firstRound)); err != nil {
			return err
		}
		m.replica.RefineDetailed(onlineEps, onlineRefineMax)
	}
	startVersion := m.version
	startPoints := m.points
	before, err := scrape(c, srv)
	if err != nil {
		return err
	}
	ws, st, err := window(o.window, o.trace, true)
	if err != nil {
		return err
	}
	after, err := scrape(c, srv)
	if err != nil {
		return err
	}
	var trs []*obs.Trace
	if o.trace {
		if trs, err = traces(c, srv); err != nil {
			return err
		}
	}
	win := newResult()
	st.report(win)
	endVersion := m.version

	// Verification, outside the timed window: replay every round of the
	// window on the replica and match each read against the versions
	// that could have served it.
	if o.wrongRef && len(log) > 0 {
		log[0].value = math.Nextafter(log[0].value, math.Inf(1))
	}
	if err := verifyReads(m.replica, batch, firstRound, startVersion, endVersion, log); err != nil {
		return err
	}
	if o.overhead {
		_, tail, err := window(o.window/2, false, false)
		if err != nil {
			return err
		}
		untraced.add(tail)
		u := newResult()
		untraced.report(u)
		r.named(u, win, "req_per_s")
	}
	r.expect("online swaps = refines answered swapped:true", delta(before, after, "sgserve_grid_swaps_total") == float64(ws.swapped),
		"swaps %.0f, swapped replies %d", delta(before, after, "sgserve_grid_swaps_total"), ws.swapped)
	r.expect("online model_points constant over the window", ws.pointsFirst == startPoints && ws.pointsLast == startPoints,
		"start %d, first round %d, last round %d", startPoints, ws.pointsFirst, ws.pointsLast)
	r.expect("online sgserve_points_evaluated_total", delta(before, after, "sgserve_points_evaluated_total") == float64(st.points),
		"delta %.0f, reads answered %d", delta(before, after, "sgserve_points_evaluated_total"), st.points)

	var obsTime time.Duration
	for _, d := range ws.observe {
		obsTime += d
	}
	refine := ms(ws.refine)
	writerFigures := map[string]metric{
		"observe_points_per_s": {float64(len(ws.observe)*len(batch)) / obsTime.Seconds(), "points/s"},
		"refine_p50_ms":        {quantile(refine, 0.5), "ms"},
		"refine_p90_ms":        {quantile(refine, 0.9), "ms"},
	}
	r.note("online writer: %d rounds (observe %d points + refine/export/swap), all swapped; refine p90 rests on %d samples beyond it",
		len(ws.refine), len(batch), len(ws.refine)/10)
	if !o.trace {
		for k, v := range writerFigures {
			win.metrics[k] = v
		}
		win.textOnly("observe_points_per_s", "refine_p50_ms", "refine_p90_ms")
		return finish(r, win, setup, ps)
	}
	r.attempted += st.attempted
	r.failed += st.failed
	r.notes = append(r.notes, win.notes...)
	for k, v := range writerFigures {
		r.metrics[k] = v
	}
	return onlineLayers(o, r, m, batch, round, trs, before, after)
}

// verifyReads replays rounds [first, ...) on replica, one version each
// from startVersion+1 to endVersion, and requires every read to match
// bit for bit the value of some version in its [lo, hi] range.
func verifyReads(replica *adaptive.Grid, batch [][]float64, first int, startVersion, endVersion uint64, log []read) error {
	sort.SliceStable(log, func(i, j int) bool { return log[i].lo < log[j].lo })
	matched := make([]bool, len(log))
	next := 0
	var active []int
	exported, err := replica.ExportCompact()
	if err != nil {
		return err
	}
	for v := startVersion; ; v++ {
		if v > startVersion {
			if _, _, err := replica.ObserveBatch(batch, roundValues(batch, first+int(v-startVersion-1))); err != nil {
				return err
			}
			replica.RefineDetailed(onlineEps, onlineRefineMax)
			if exported, err = replica.ExportCompact(); err != nil {
				return err
			}
		}
		for next < len(log) && log[next].lo <= v {
			active = append(active, next)
			next++
		}
		keep := active[:0]
		for _, i := range active {
			rd := &log[i]
			if !matched[i] && rd.lo <= v && v <= rd.hi &&
				math.Float64bits(eval.Iterative(exported, rd.x)) == math.Float64bits(rd.value) {
				matched[i] = true
			}
			if matched[i] {
				continue
			}
			if rd.hi <= v {
				return wrongf("read at %v returned %v, which no version in [%d, %d] gives", rd.x, rd.value, rd.lo, rd.hi)
			}
			keep = append(keep, i)
		}
		active = keep
		if v >= endVersion {
			break
		}
	}
	if next < len(log) || len(active) > 0 {
		return wrongf("%d reads name versions beyond the last installed one (%d)", len(log)-next+len(active), endVersion)
	}
	return nil
}
