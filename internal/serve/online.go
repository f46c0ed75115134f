package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/adaptive"
	"compactsg/internal/core"
	"compactsg/internal/obs"
)

// OnlineConfig enables the write path: per-name observation-fed
// adaptive models (internal/adaptive) that are periodically refined,
// exported as SGC2 snapshots and hot-swapped into the read path via
// GridSet.Swap. The zero value (Enabled false) keeps the server a
// static snapshot store.
type OnlineConfig struct {
	// Enabled turns on POST /v1/grids/{name}/observe and
	// POST /v1/grids/{name}/refine.
	Enabled bool
	// InitLevel is the regular level new models seed with. Default 2.
	InitLevel int
	// MaxLevel bounds refinement depth (the model's key space).
	// Default 8.
	MaxLevel int
	// RefineEps is the surplus threshold of a refinement round.
	// Default 1e-3.
	RefineEps float64
	// RefineMax caps points added per refinement round. Default 1024.
	RefineMax int
	// MaxPoints caps each model's total point count; observations that
	// would grow a model past it are rejected with 507. It also caps
	// the model's level at the deepest level ≤ MaxLevel whose regular
	// grid, the largest snapshot a refine can write, holds at most
	// MaxPoints points; deeper observations are rejected like points
	// past MaxLevel. Default 1<<20.
	MaxPoints int
	// SnapshotDir is where refined snapshots are written
	// (<name>.v<version>.sg). Default: a per-process directory under
	// the system temp dir. The displaced version's file is deleted
	// after each swap (its mapping survives the unlink).
	SnapshotDir string
	// Interval, when positive, runs a background loop that refines and
	// swaps every model with unflushed observations each tick. Zero
	// means refinement happens only via the endpoint / RefineOnline.
	Interval time.Duration
}

func (c *OnlineConfig) fill() {
	if c.InitLevel < 1 {
		c.InitLevel = 2
	}
	if c.MaxLevel < c.InitLevel {
		c.MaxLevel = c.InitLevel
		if c.MaxLevel < 8 {
			c.MaxLevel = 8
		}
	}
	if c.RefineEps <= 0 {
		c.RefineEps = 1e-3
	}
	if c.RefineMax < 1 {
		c.RefineMax = 1024
	}
	if c.MaxPoints < 1 {
		c.MaxPoints = 1 << 20
	}
	if c.SnapshotDir == "" {
		c.SnapshotDir = filepath.Join(os.TempDir(), fmt.Sprintf("sgserve-online-%d", os.Getpid()))
	}
}

// onlineSet owns every observation-fed model of the server.
type onlineSet struct {
	s   *Server
	cfg OnlineConfig

	mu     sync.Mutex
	models map[string]*onlineModel

	stop chan struct{}
	wg   sync.WaitGroup
}

// onlineModel is one name's adaptive model. The grid itself is
// internally synchronized (observations and reads interleave freely);
// mu serializes the refine → export → snapshot → swap pipeline so
// versions of one name are produced strictly in order.
type onlineModel struct {
	name string
	grid *adaptive.Grid

	mu sync.Mutex
	// dirty counts observations applied since the last installed
	// snapshot; a refine round with dirty == 0 and nothing newly
	// committed skips the swap.
	dirty atomic.Int64
	// lastSnap is the installed snapshot's file path; the previous one
	// is unlinked after each successful swap. Guarded by mu.
	lastSnap string
}

func newOnlineSet(s *Server, cfg OnlineConfig) *onlineSet {
	o := &onlineSet{
		s:      s,
		cfg:    cfg,
		models: make(map[string]*onlineModel),
		stop:   make(chan struct{}),
	}
	if cfg.Interval > 0 {
		o.wg.Add(1)
		go o.refineLoop()
	}
	return o
}

// close stops the background refiner. Models are dropped with the set;
// their installed snapshots stay registered in the grid registry.
func (o *onlineSet) close() {
	close(o.stop)
	o.wg.Wait()
}

// refineLoop periodically refines and swaps every model that received
// observations since its last snapshot.
func (o *onlineSet) refineLoop() {
	defer o.wg.Done()
	t := time.NewTicker(o.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
		}
		o.mu.Lock()
		ms := make([]*onlineModel, 0, len(o.models))
		for _, m := range o.models {
			if m.dirty.Load() > 0 {
				ms = append(ms, m)
			}
		}
		o.mu.Unlock()
		sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		for _, m := range ms {
			if _, err := o.refine(m); err != nil {
				o.s.cfg.ErrorLog.Error("background refine failed",
					"grid", m.name, "error", err.Error())
			}
		}
	}
}

// modelFor returns the model registered under name, creating it with
// the request's dimensionality on first observation.
func (o *onlineSet) modelFor(name string, dim int) (*onlineModel, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m, ok := o.models[name]; ok {
		if m.grid.Dim() != dim {
			return nil, Errorf(http.StatusBadRequest,
				"grid %q is %d-dimensional, observation has %d coordinates", name, m.grid.Dim(), dim)
		}
		return m, nil
	}
	// The model's prefix, and so each export, spans the whole regular
	// grid of its deepest level: cap that level so the grid fits
	// MaxPoints.
	level := o.cfg.MaxLevel
	for ; level > o.cfg.InitLevel; level-- {
		if n, err := core.NumGridPoints(dim, level); err == nil && n <= int64(o.cfg.MaxPoints) {
			break
		}
	}
	g, err := adaptive.NewObserved(dim, o.cfg.InitLevel, level)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "cannot create model %q: %v", name, err)
	}
	m := &onlineModel{name: name, grid: g}
	o.models[name] = m
	return m, nil
}

// get returns the model under name, or nil.
func (o *onlineSet) get(name string) *onlineModel {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.models[name]
}

// RefineResult is the outcome of one refine → snapshot → swap round,
// also the JSON body of POST /v1/grids/{name}/refine.
type RefineResult struct {
	Grid string `json:"grid"`
	// Version is the registry version now serving (unchanged when the
	// round had nothing to install).
	Version uint64 `json:"version"`
	// Swapped says whether this round installed a new snapshot.
	Swapped bool `json:"swapped"`
	// Refinement accounting (see adaptive.RefineStats).
	Committed  int `json:"committed"`
	Added      int `json:"added"`
	Capped     int `json:"capped"`
	Candidates int `json:"candidates"`
	// Model occupancy after the round.
	Points   int `json:"points"`
	Awaiting int `json:"awaiting"`
	// Need lists up to 32 points awaiting observed values — the
	// steering loop's next work list, coarsest first.
	Need [][]float64 `json:"need,omitempty"`
	// SnapshotPath is the installed snapshot's file (in-process use;
	// not serialized).
	SnapshotPath string `json:"-"`
}

// refine runs one commit → refine → export → snapshot → swap round for
// m. Rounds of one model are serialized by m.mu; the read path never
// blocks on them (the swap itself holds the registry mutex only briefly).
func (o *onlineSet) refine(m *onlineModel) (RefineResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dirty := m.dirty.Swap(0)
	st := m.grid.RefineDetailed(o.cfg.RefineEps, o.cfg.RefineMax)
	res := RefineResult{
		Grid:       m.name,
		Committed:  st.Committed,
		Added:      st.Added,
		Capped:     st.Capped,
		Candidates: st.Candidates,
	}
	committed, _, awaiting := m.grid.Counts()
	res.Points = m.grid.Points()
	res.Awaiting = awaiting
	res.Need = m.grid.NeedValues(32)
	cur := o.s.grids.Version(m.name)
	res.Version = cur
	if committed == 0 || (dirty == 0 && st.Committed == 0 && cur > 0) {
		// Nothing serveable yet, or nothing changed since the installed
		// version: keep serving what's there. Re-arm the dirty counter
		// so pre-commit observations aren't lost to the skip.
		m.dirty.Add(dirty)
		o.s.met.refines.Inc()
		return res, nil
	}
	cg, err := m.grid.ExportCompact()
	if err != nil {
		m.dirty.Add(dirty)
		return res, fmt.Errorf("serve: exporting %q: %w", m.name, err)
	}
	path, err := o.writeSnapshot(m.name, cur+1, cg)
	if err != nil {
		m.dirty.Add(dirty)
		return res, err
	}
	ver, err := o.s.grids.Swap(m.name, path, cur+1)
	if err != nil {
		m.dirty.Add(dirty)
		os.Remove(path)
		return res, err
	}
	res.Version = ver
	res.Swapped = true
	o.s.met.refines.Inc()
	if m.lastSnap != "" && m.lastSnap != path {
		// The displaced version's mapping survives the unlink; a cold
		// reload only ever needs the current path.
		os.Remove(m.lastSnap)
	}
	m.lastSnap = path
	res.SnapshotPath = path
	return res, nil
}

// writeSnapshot materializes an exported grid as
// <dir>/<name>.v<version>.sg, written to a temp file and renamed so a
// concurrent load never sees a half-written snapshot.
func (o *onlineSet) writeSnapshot(name string, version uint64, cg *core.Grid) (string, error) {
	if err := os.MkdirAll(o.cfg.SnapshotDir, 0o755); err != nil {
		return "", fmt.Errorf("serve: snapshot dir: %w", err)
	}
	path := filepath.Join(o.cfg.SnapshotDir, fmt.Sprintf("%s.v%d.sg", name, version))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("serve: snapshot: %w", err)
	}
	if _, err := cg.WriteSnapshot(f, core.SnapCompressed); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	return path, nil
}

// RefineOnline runs one refine → snapshot → swap round for the named
// online model (the in-process form of POST /v1/grids/{name}/refine).
func (s *Server) RefineOnline(name string) (RefineResult, error) {
	if s.online == nil {
		return RefineResult{}, Errorf(http.StatusNotFound, "online mode is disabled")
	}
	m := s.online.get(name)
	if m == nil {
		return RefineResult{}, Errorf(http.StatusNotFound, "no online model %q: observe it first", name)
	}
	return s.online.refine(m)
}

// ValidateGridName bounds names that become snapshot file names and URL
// path segments: short, path-safe, no hidden-file or dot-dot tricks.
func ValidateGridName(name string) error {
	if name == "" || len(name) > 128 {
		return Errorf(http.StatusBadRequest, "grid name must be 1..128 characters")
	}
	if name[0] == '.' {
		return Errorf(http.StatusBadRequest, "grid name cannot start with '.'")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return Errorf(http.StatusBadRequest, "grid name contains %q; allowed: letters, digits, '.', '_', '-'", r)
		}
	}
	return nil
}

type observeRequest struct {
	Points [][]float64 `json:"points"`
	Values []float64   `json:"values"`
}

type observeResponse struct {
	Grid     string `json:"grid"`
	Applied  int    `json:"applied"`
	Rejected int    `json:"rejected"`
	// Model occupancy after the batch.
	Points   int `json:"points"`
	Pending  int `json:"pending"`
	Awaiting int `json:"awaiting"`
}

func (s *Server) handleObserve(r *http.Request) (any, error) {
	sp := obs.FromContext(r.Context())
	name := r.PathValue("name")
	if err := ValidateGridName(name); err != nil {
		return nil, err
	}
	sp.SetGrid(name)
	var req observeRequest
	if err := DecodeJSON(r, s.cfg.MaxBodyBytes, &req); err != nil {
		return nil, err
	}
	if len(req.Points) == 0 {
		return nil, Errorf(http.StatusBadRequest, "no points")
	}
	if len(req.Points) != len(req.Values) {
		return nil, Errorf(http.StatusBadRequest,
			"%d points with %d values", len(req.Points), len(req.Values))
	}
	if len(req.Points) > s.cfg.MaxBatchPoints {
		return nil, Errorf(http.StatusRequestEntityTooLarge,
			"batch of %d points exceeds the per-request cap of %d", len(req.Points), s.cfg.MaxBatchPoints)
	}
	sp.SetPoints(len(req.Points))
	dim := len(req.Points[0])
	if dim == 0 {
		return nil, Errorf(http.StatusBadRequest, "point 0 has no coordinates")
	}
	m, err := s.online.modelFor(name, dim)
	if err != nil {
		return nil, err
	}
	if m.grid.Points()+len(req.Points) > s.cfg.Online.MaxPoints {
		return nil, Errorf(http.StatusInsufficientStorage,
			"model %q at %d points; cap is %d", name, m.grid.Points(), s.cfg.Online.MaxPoints)
	}
	sp.Begin(obs.StageEval)
	applied, rejected, err := m.grid.ObserveBatch(req.Points, req.Values)
	sp.End(obs.StageEval)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "%v", err)
	}
	if applied > 0 {
		m.dirty.Add(int64(applied))
		s.met.observations.Add(uint64(applied))
	}
	_, pending, awaiting := m.grid.Counts()
	return observeResponse{
		Grid:     name,
		Applied:  applied,
		Rejected: rejected,
		Points:   m.grid.Points(),
		Pending:  pending,
		Awaiting: awaiting,
	}, nil
}

func (s *Server) handleRefine(r *http.Request) (any, error) {
	sp := obs.FromContext(r.Context())
	name := r.PathValue("name")
	if err := ValidateGridName(name); err != nil {
		return nil, err
	}
	sp.SetGrid(name)
	sp.Begin(obs.StageEval)
	res, err := s.RefineOnline(name)
	sp.End(obs.StageEval)
	if err != nil {
		return nil, err
	}
	return res, nil
}
