// Package serve is the HTTP evaluation service over compressed sparse
// grids: an LRU-bounded registry of grid files and store keys that
// leases out hot-swappable instances; one evaluation pipeline behind
// the JSON and binary endpoints, whose single-point /v1/eval may
// coalesce into micro-batches per grid name (the paper's batched
// decompression, Alg. 7 + Sec. 4.3 blocking); the online write path;
// and the request front, with Prometheus-style metrics and traces,
// that sgproxy shares. cmd/sgserve is the thin binary around it;
// cmd/sgload measures it and cmd/sgstress hunts races in it.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/obs"
	"compactsg/internal/store"
)

// ErrUnknownGrid is returned for names never registered with Add.
var ErrUnknownGrid = fmt.Errorf("serve: unknown grid")

// ErrStaleSwap is returned by Swap when the explicit version is not
// strictly newer than the installed one — the same ordering rule the
// sharding proxy applies to topology epochs.
var ErrStaleSwap = errors.New("serve: stale swap: version not newer than installed")

// errStaleLoad marks a singleflight load whose source was swapped while
// the file read was in flight; the result is discarded and Acquire
// retries against the freshly installed version. Never escapes the
// registry.
var errStaleLoad = errors.New("serve: load superseded by swap")

// GridSet is a name → compressed-grid registry. Grids are loaded
// lazily from their files on first use and at most MaxResident stay in
// memory; least-recently-used grids are evicted when the bound is hit
// (their files remain registered, so a later request reloads them).
//
// Concurrency contract (the serving hot path depends on it):
//
//   - Lookups of resident grids take only a read lock plus a brief
//     LRU-list mutex; they never wait on disk.
//   - A cold load runs with NO registry lock held, deduplicated per
//     name by a singleflight: concurrent requests for the same cold
//     grid share one file read, and requests for other grids (resident
//     or cold) proceed independently. The resident bound applies to the
//     installed set; k concurrent cold loads transiently hold up to k
//     extra grids while in flight.
//   - Acquire hands out refcounted leases. An evicted grid stays fully
//     usable for existing lease holders; once the last lease of an
//     evicted grid is released, OnRetire fires and the grid's file
//     mapping is unmapped.
type GridSet struct {
	maxResident int
	opts        []compactsg.Option

	mu       sync.RWMutex // guards sources, resident, loading
	sources  map[string]*source
	resident map[string]*entry
	loading  map[string]*loadCall

	lruMu sync.Mutex
	lru   *list.List // front = most recently used; values are *entry

	// Lifecycle hooks. All of them are called with NO registry lock
	// held, so they may call back into the GridSet freely. They must be
	// set before the registry sees traffic and not changed afterwards.
	//
	// OnLoad fires after a grid file was read and installed (took is
	// the wall time of the cold load; mode says whether the payload was
	// memory-mapped or copied). OnLoadFail fires for each load attempt
	// that ended in an error. OnLoadWait fires for each caller that
	// piggybacked on another goroutine's in-flight load of the same
	// grid. OnEvict fires right after a grid leaves the resident set.
	// OnRetire fires when the last lease of an evicted grid is released
	// (never for resident grids, which always hold the registry's own
	// reference); the grid's file mapping, if any, is unmapped right
	// after OnRetire returns.
	// OnSwap fires after Swap installed a new version under a name, with
	// no lock held and before the displaced entry's eviction hooks run.
	OnLoad     func(name string, mode compactsg.LoadMode, took time.Duration)
	OnLoadFail func(name string, err error)
	OnLoadWait func(name string)
	OnEvict    func(name string, g *compactsg.Grid)
	OnRetire   func(name string, g *compactsg.Grid)
	OnSwap     func(name string, version uint64)

	// OnPublish fires after Swap tried to publish the new snapshot into
	// the tiered store (only when a store is configured), with the
	// content key on success or the publish error. Best-effort: a failed
	// publish never fails the swap.
	OnPublish func(name, key string, err error)

	// LoadHook, if set, runs inside every file load (no locks held),
	// before the file is opened. It exists for tests and the sgstress
	// chaos harness to inflate or fail loads deterministically.
	LoadHook func(name string) error

	// store, when set, backs the cold-load path of key-registered
	// sources: cache hit → mmap, miss → fetch → verify → cache → mmap.
	// Set once via SetStore before the registry sees traffic.
	store *store.Store
}

type source struct {
	name string // the registry's own copy of the key (see CanonicalName)
	path string
	// key, when non-empty, is the SGC2 content address the grid loads
	// from through the tiered store (it wins over path). Guarded by
	// GridSet.mu.
	key string
	// Metadata cached from the first successful load so /v1/grids can
	// describe evicted grids without touching the file again. Guarded
	// by GridSet.mu.
	known  bool
	dim    int
	level  int
	points int64
	bytes  int64
	// version is the per-name monotonic swap counter: 0 for a static
	// registration, bumped by every successful Swap. Guarded by
	// GridSet.mu.
	version uint64
}

// entry is one resident (or recently evicted but still leased) grid.
type entry struct {
	name string
	grid *compactsg.Grid
	// open owns the grid's backing storage: for mmap loads closing it
	// unmaps the file, so it must happen only after the last lease is
	// gone. Closed by whoever drops refs to zero, after OnRetire.
	open *compactsg.OpenGrid
	el   *list.Element
	// refs counts outstanding leases plus one reference owned by the
	// registry while the entry is resident. Eviction drops the registry
	// reference; whoever drops refs to zero runs the retire hook.
	refs atomic.Int64
}

// loadCall is the singleflight slot for one in-flight file load.
type loadCall struct {
	done chan struct{} // closed when err is final
	err  error
}

// A Lease pins one loaded grid instance. Release must be called exactly
// once when the holder is done; it is safe (and a no-op) to call again.
type Lease struct {
	s        *GridSet
	e        *entry
	released atomic.Bool
}

// Grid returns the pinned grid instance.
func (l *Lease) Grid() *compactsg.Grid { return l.e.grid }

// Release drops the lease. After the grid has been evicted, the last
// Release triggers the registry's OnRetire hook.
func (l *Lease) Release() {
	if l.released.CompareAndSwap(false, true) {
		l.s.releaseEntry(l.e)
	}
}

// NewGridSet creates a registry bounded to maxResident in-memory grids
// (minimum 1). opts are applied to every loaded grid — pass
// compactsg.WithWorkers here so batch dispatch uses the server's
// worker pool.
func NewGridSet(maxResident int, opts ...compactsg.Option) *GridSet {
	if maxResident < 1 {
		maxResident = 1
	}
	return &GridSet{
		maxResident: maxResident,
		opts:        opts,
		sources:     make(map[string]*source),
		resident:    make(map[string]*entry),
		loading:     make(map[string]*loadCall),
		lru:         list.New(),
	}
}

// Add registers a grid file under name. The file is not opened until
// the first Get/Acquire (or Preload). Add is safe to call while the
// registry is serving traffic (mid-flight registration is exactly what
// cmd/sgstress exercises).
func (s *GridSet) Add(name, path string) error {
	if name == "" {
		return fmt.Errorf("serve: empty grid name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sources[name]; dup {
		return fmt.Errorf("serve: grid %q registered twice", name)
	}
	s.sources[name] = &source{name: name, path: path}
	return nil
}

// SetStore wires a tiered snapshot store behind the cold-load path.
// Must be called before the registry sees traffic.
func (s *GridSet) SetStore(st *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// Store returns the configured tiered store, or nil.
func (s *GridSet) Store() *store.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

// AddStored registers a grid that loads from the tiered store by SGC2
// content address instead of a file path: a cache hit mmaps the cached
// object, a miss fetches it from the remote tier (verified end to end)
// first. Requires SetStore.
func (s *GridSet) AddStored(name, key string) error {
	if name == "" {
		return fmt.Errorf("serve: empty grid name")
	}
	if err := store.ValidateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return fmt.Errorf("serve: grid %q is store-backed but no store is configured", name)
	}
	if _, dup := s.sources[name]; dup {
		return fmt.Errorf("serve: grid %q registered twice", name)
	}
	s.sources[name] = &source{name: name, key: key}
	return nil
}

// Swap atomically installs path as a strictly newer version of name,
// registering the name first if it was unknown. version 0 means "next"
// (installed version + 1); an explicit version must be greater than the
// installed one or the swap is rejected with ErrStaleSwap — late
// retries of an old snapshot can never roll a grid back, mirroring the
// proxy's topology-epoch rule. The file is loaded and validated before
// the registry changes, so a bad snapshot leaves the old version
// serving.
//
// The displaced instance follows the normal eviction path: in-flight
// leases (a dispatched micro-batch holds one) finish on the old
// version, and its file mapping is unmapped only after the last lease
// releases.
// Returns the version now installed.
func (s *GridSet) Swap(name, path string, version uint64) (uint64, error) {
	if name == "" {
		return 0, fmt.Errorf("serve: empty grid name")
	}
	og, err := s.load(name, path, "")
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	src, ok := s.sources[name]
	if !ok {
		src = &source{name: name, path: path}
		s.sources[name] = src
	}
	if version == 0 {
		version = src.version + 1
	} else if version <= src.version {
		installed := src.version
		s.mu.Unlock()
		og.Close()
		return installed, fmt.Errorf("%w: version %d <= installed %d for %q", ErrStaleSwap, version, installed, name)
	}
	src.path = path
	src.key = "" // the fresh file is the truth until Publish re-keys it
	src.version = version
	_, victims := s.installLocked(src, og, 1) // the registry's reference; no lease handed out
	s.mu.Unlock()

	if s.OnSwap != nil {
		s.OnSwap(src.name, version)
	}
	for _, v := range victims {
		s.finishEvict(v)
	}
	// Publish the installed snapshot into the tiered store so
	// post-eviction reloads hit the cache (and other nodes can fetch
	// it). Best-effort: the swap already succeeded.
	if st := s.Store(); st != nil {
		key, perr := st.Publish(context.Background(), path)
		if perr == nil {
			s.mu.Lock()
			if src, ok := s.sources[name]; ok && src.version == version {
				src.key = key
			}
			s.mu.Unlock()
		}
		if s.OnPublish != nil {
			s.OnPublish(name, key, perr)
		}
	}
	return version, nil
}

// Version returns the monotonic swap counter installed under name: 0
// for static registrations (and unknown names), ≥ 1 once Swap has run.
func (s *GridSet) Version(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if src, ok := s.sources[name]; ok {
		return src.version
	}
	return 0
}

// Versions returns the swap counter of every grid that has one
// (version ≥ 1), name → version.
func (s *GridSet) Versions() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64)
	for name, src := range s.sources {
		if src.version > 0 {
			out[name] = src.version
		}
	}
	return out
}

// CanonicalName maps a grid name given as raw bytes (the binary wire
// protocol's name field) to the registry's own interned string for it.
// The map lookup with a string(b) key does not allocate, which keeps
// the binary decode path allocation-free for registered grids; unknown
// names report ok=false and the caller builds its error however it
// likes.
func (s *GridSet) CanonicalName(b []byte) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.sources[string(b)]
	if !ok {
		return "", false
	}
	return src.name, true
}

// Names returns all registered grid names, sorted.
func (s *GridSet) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ResidentCount returns how many grids are currently in memory.
func (s *GridSet) ResidentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.resident)
}

// GridInfo describes one registered grid for /v1/grids.
type GridInfo struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	// Shape fields are known once the grid has been loaded at least
	// once; Points == 0 means "never loaded yet".
	Dim         int   `json:"dim,omitempty"`
	Level       int   `json:"level,omitempty"`
	Points      int64 `json:"points,omitempty"`
	MemoryBytes int64 `json:"memoryBytes,omitempty"`
	// Version is the hot-swap counter; 0 means statically registered.
	Version uint64 `json:"version,omitempty"`
}

// Info lists every registered grid, sorted by name.
func (s *GridSet) Info() []GridInfo {
	s.mu.RLock()
	out := make([]GridInfo, 0, len(s.sources))
	for name, src := range s.sources {
		gi := GridInfo{Name: name}
		if _, ok := s.resident[name]; ok {
			gi.Resident = true
		}
		if src.known {
			gi.Dim, gi.Level, gi.Points, gi.MemoryBytes = src.dim, src.level, src.points, src.bytes
		}
		gi.Version = src.version
		out = append(out, gi)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named grid, loading it (and evicting the
// least-recently-used resident grid if the bound is exceeded) as
// needed. Every Get marks the grid most-recently-used. Get does not
// pin the grid; callers that keep using the instance, as every
// evaluation does, should use Acquire instead. This
// matters doubly for memory-mapped grids: once an evicted grid's last
// lease is released its mapping is unmapped, and an unpinned instance
// then faults on access.
func (s *GridSet) Get(name string) (*compactsg.Grid, error) {
	l, err := s.Acquire(context.Background(), name)
	if err != nil {
		return nil, err
	}
	g := l.Grid()
	l.Release()
	return g, nil
}

// Acquire returns a refcounted lease on the named grid, loading it
// first if it is cold. ctx bounds only the wait for an in-flight load
// by another goroutine; a load this caller leads always runs to
// completion so the result can be shared.
//
// When ctx carries an obs.Span, cold-path time is attributed on it: a
// load this caller led as StageLoad, waiting on someone else's
// in-flight load as StageLoadWait. The resident fast path records
// nothing.
func (s *GridSet) Acquire(ctx context.Context, name string) (*Lease, error) {
	sp := obs.FromContext(ctx)
	for {
		// Fast path: resident grid, read lock only. The refcount
		// increment is safe under the read lock because eviction (which
		// drops the registry's reference) requires the write lock.
		s.mu.RLock()
		if e, ok := s.resident[name]; ok {
			e.refs.Add(1)
			s.mu.RUnlock()
			s.touch(e)
			return &Lease{s: s, e: e}, nil
		}
		lc, inflight := s.loading[name]
		_, known := s.sources[name]
		s.mu.RUnlock()
		if !known {
			return nil, fmt.Errorf("%w %q", ErrUnknownGrid, name)
		}

		if !inflight {
			lease, joined, err := s.lead(sp, name)
			if errors.Is(err, errStaleLoad) {
				continue // a Swap won the race; pick up its entry
			}
			if err != nil {
				return nil, err
			}
			if lease != nil {
				return lease, nil
			}
			lc = joined
		} else if s.OnLoadWait != nil {
			s.OnLoadWait(name)
		}

		waitStart := time.Now()
		select {
		case <-lc.done:
			sp.Add(obs.StageLoadWait, time.Since(waitStart))
		case <-ctx.Done():
			sp.Add(obs.StageLoadWait, time.Since(waitStart))
			return nil, ctx.Err()
		}
		if lc.err != nil {
			if errors.Is(lc.err, errStaleLoad) {
				continue // a Swap won the race; pick up its entry
			}
			return nil, lc.err
		}
		// Loaded; loop to pick it up (or reload if it was already
		// evicted again by other traffic).
	}
}

// lead tries to become the loading leader for name. It returns exactly
// one of: a lease (grid was or became resident), a loadCall to wait on
// (someone else is loading), or an error. sp is the leading request's
// span (nil when untraced); the file read + decode is charged to it as
// StageLoad.
func (s *GridSet) lead(sp *obs.Span, name string) (*Lease, *loadCall, error) {
	s.mu.Lock()
	if e, ok := s.resident[name]; ok {
		e.refs.Add(1)
		s.mu.Unlock()
		s.touch(e)
		return &Lease{s: s, e: e}, nil, nil
	}
	if lc, ok := s.loading[name]; ok {
		s.mu.Unlock()
		if s.OnLoadWait != nil {
			s.OnLoadWait(name)
		}
		return nil, lc, nil
	}
	src, ok := s.sources[name]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w %q", ErrUnknownGrid, name)
	}
	lc := &loadCall{done: make(chan struct{})}
	s.loading[name] = lc
	path := src.path
	key := src.key
	version := src.version
	s.mu.Unlock()

	// The file read happens here, with no registry lock held: a cold
	// load of one grid never blocks Acquire/Get on any other.
	start := time.Now()
	og, err := s.load(name, path, key)
	took := time.Since(start)
	sp.Add(obs.StageLoad, took)

	var victims []*entry
	var lease *Lease
	var stale *compactsg.OpenGrid
	s.mu.Lock()
	delete(s.loading, name)
	if err == nil && src.version != version {
		// The source was swapped while this load was reading the old
		// file: installing it would roll the name back. Discard and let
		// every waiter retry against the swapped-in entry.
		stale, og = og, nil
		err = errStaleLoad
	}
	if err == nil {
		var e *entry
		e, victims = s.installLocked(src, og, 2) // the registry's reference + this caller's lease
		lease = &Lease{s: s, e: e}
	}
	lc.err = err
	s.mu.Unlock()
	close(lc.done)

	if stale != nil {
		stale.Close()
	}
	if err != nil {
		if errors.Is(err, errStaleLoad) {
			return nil, nil, err // not a failure: the swap's entry serves
		}
		if s.OnLoadFail != nil {
			s.OnLoadFail(name, err)
		}
		return nil, nil, err
	}
	if s.OnLoad != nil {
		s.OnLoad(name, og.Mode, took)
	}
	for _, v := range victims {
		s.finishEvict(v)
	}
	return lease, nil, nil
}

// installLocked makes og the resident instance of src, starting with
// refs references (the registry's own plus any lease handed out with
// it), and records its shape on src. It returns the new entry and the
// entries to evict, with no hooks run yet: the instance it displaced
// under the name, if any, first, then those the resident bound pushed
// out of the LRU. Caller holds s.mu for writing.
func (s *GridSet) installLocked(src *source, og *compactsg.OpenGrid, refs int64) (*entry, []*entry) {
	g := og.Grid
	src.known = true
	src.dim, src.level = g.Dim(), g.Level()
	src.points, src.bytes = g.Points(), g.MemoryBytes()
	e := &entry{name: src.name, grid: g, open: og}
	e.refs.Store(refs)
	var victims []*entry
	s.lruMu.Lock()
	defer s.lruMu.Unlock()
	if old := s.resident[src.name]; old != nil {
		s.lru.Remove(old.el)
		victims = append(victims, old)
	}
	s.resident[src.name] = e
	e.el = s.lru.PushFront(e)
	for s.lru.Len() > s.maxResident {
		back := s.lru.Back()
		v := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.resident, v.name)
		victims = append(victims, v)
	}
	return e, victims
}

// touch marks an entry most-recently-used. Harmlessly a no-op if the
// entry was concurrently evicted (its element is detached).
func (s *GridSet) touch(e *entry) {
	s.lruMu.Lock()
	s.lru.MoveToFront(e.el)
	s.lruMu.Unlock()
}

// finishEvict runs the eviction hooks for an entry already removed from
// the resident map, then drops the registry's reference. Called with no
// locks held.
func (s *GridSet) finishEvict(v *entry) {
	if s.OnEvict != nil {
		s.OnEvict(v.name, v.grid)
	}
	s.releaseEntry(v)
}

// releaseEntry drops one reference; the goroutine that drops the last
// reference of an evicted entry fires OnRetire and then releases the
// grid's backing storage (for mmap loads, the munmap — deferred to this
// point precisely so leased-out evicted grids stay readable).
func (s *GridSet) releaseEntry(e *entry) {
	if e.refs.Add(-1) == 0 {
		if s.OnRetire != nil {
			s.OnRetire(e.name, e.grid)
		}
		e.open.Close()
	}
}

// Purge evicts every resident grid. Grids with outstanding leases stay
// usable until those are released; everything else is retired (and
// unmapped) before Purge returns. The server calls it on Close so a
// shut-down server holds no file mappings.
func (s *GridSet) Purge() {
	var victims []*entry
	s.mu.Lock()
	s.lruMu.Lock()
	for name, e := range s.resident {
		delete(s.resident, name)
		s.lru.Remove(e.el)
		victims = append(victims, e)
	}
	s.lruMu.Unlock()
	s.mu.Unlock()
	for _, v := range victims {
		s.finishEvict(v)
	}
}

// DropPages sheds the resident pages of name's mapped payload
// (MADV_DONTNEED): the grid stays registered, resident and serving —
// its pages refault from the snapshot file on next touch. This is the
// page-granular eviction knob for memory pressure, as opposed to the
// whole-grid LRU eviction of the resident bound.
func (s *GridSet) DropPages(name string) error {
	s.mu.RLock()
	e, ok := s.resident[name]
	if ok {
		e.refs.Add(1)
	}
	s.mu.RUnlock()
	if !ok {
		return nil // cold grids hold no pages
	}
	err := e.open.DropPages()
	s.releaseEntry(e)
	return err
}

// ResidentPayloadBytes estimates the physical memory currently held by
// resident grid payloads (mincore over each mapping; full payload size
// for copy loads). It is the gauge behind sgserve_mapped_resident_bytes.
func (s *GridSet) ResidentPayloadBytes() int64 {
	s.mu.RLock()
	es := make([]*entry, 0, len(s.resident))
	for _, e := range s.resident {
		e.refs.Add(1)
		es = append(es, e)
	}
	s.mu.RUnlock()
	var sum int64
	for _, e := range es {
		if n, err := e.open.ResidentBytes(); err == nil {
			sum += n
		}
		s.releaseEntry(e)
	}
	return sum
}

// Preload loads up to maxResident registered grids eagerly (sorted
// name order) so the first requests do not pay the load. Broken grid
// files do not abort the pass: every healthy grid within the resident
// budget is still loaded and the per-grid errors come back aggregated
// via errors.Join (nil when everything loaded).
func (s *GridSet) Preload() error {
	var errs []error
	loaded := 0
	for _, name := range s.Names() {
		if loaded >= s.maxResident {
			break
		}
		if _, err := s.Get(name); err != nil {
			errs = append(errs, err)
			continue
		}
		loaded++
	}
	return errors.Join(errs...)
}

// load reads and validates one grid through compactsg.Open, so SGC2
// snapshots arrive zero-copy (memory-mapped) where the platform allows
// and everything else goes through the copying decoders. When key is
// set the file comes out of the tiered store instead of a fixed path:
// cache hit → mmap, miss → remote fetch → verify → cache → mmap. No
// registry lock is held.
func (s *GridSet) load(name, path, key string) (*compactsg.OpenGrid, error) {
	if s.LoadHook != nil {
		if err := s.LoadHook(name); err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", sourceDesc(path, key), err)
		}
	}
	desc := sourceDesc(path, key)
	var og *compactsg.OpenGrid
	var err error
	if key != "" {
		st := s.Store()
		if st == nil {
			return nil, fmt.Errorf("serve: loading %s: no store configured", desc)
		}
		var obj *store.Object
		obj, err = st.Get(context.Background(), key)
		if err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", desc, err)
		}
		// The pin covers exactly the Open window; once mmap'd, the
		// payload survives the cache evicting (unlinking) the file.
		og, err = compactsg.Open(obj.Path(), s.opts...)
		obj.Release()
		if err != nil {
			// A cached object corrupt at open time (disk rot after
			// admission) is dropped so the next load refetches it.
			var ce *core.CorruptError
			if errors.As(err, &ce) {
				st.Drop(key)
			}
		}
	} else {
		og, err = compactsg.Open(path, s.opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", desc, err)
	}
	if !og.Compressed() {
		og.Close()
		return nil, fmt.Errorf("serve: %s holds nodal values, not hierarchical coefficients; compress it first", desc)
	}
	if og.Mode == compactsg.LoadMmap {
		// Start faulting the payload in now: a cold-loaded grid is about
		// to be evaluated, and for store-backed grids the pages were just
		// written, so they are still dirty in the page cache anyway.
		og.Advise(compactsg.AdviseWillNeed)
	}
	return og, nil
}

// sourceDesc names a load source for error messages.
func sourceDesc(path, key string) string {
	if key != "" {
		return "store:" + key
	}
	return path
}
