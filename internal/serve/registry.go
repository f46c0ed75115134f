// Package serve is the HTTP evaluation service over compressed sparse
// grids: an LRU-bounded registry that keeps one record per grid name,
// located by a file path or a `store:` content key, and leases out
// hot-swappable instances; one evaluation pipeline behind the JSON and
// binary endpoints, whose single-point /v1/eval may coalesce into
// micro-batches per grid name (the paper's batched decompression,
// Alg. 7 + Sec. 4.3 blocking); the online write path; and the request
// front, with Prometheus-style metrics and traces, that sgproxy
// shares. cmd/sgserve is the thin binary around it; cmd/sgload
// measures it and cmd/sgstress hunts races in it.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// storePrefix marks a locator as an SGC2 content key in the tiered
// store; any other locator is a file path.
const storePrefix = "store:"

// GridSet is a name → compressed-grid registry with one record
// (source) per name: its locator, version, shape, resident instance,
// in-flight load and the instance the LRU last evicted. Grids load
// lazily on first use and at most MaxResident stay in memory;
// least-recently-used grids are evicted when the bound is hit (their
// records remain, so a later request reloads them).
//
// Concurrency contract (the serving hot path depends on it):
//
//   - One mutex guards every record and the LRU list. It is never held
//     across a file read, a store call or a hook, so a resident Acquire
//     is one short critical section and never waits on disk.
//   - A cold load runs with no lock held, deduplicated per name by a
//     singleflight: concurrent requests for the same cold grid share one
//     read, and requests for other grids (resident or cold) proceed
//     independently. The resident bound applies to the installed set; k
//     concurrent cold loads transiently hold up to k extra grids while
//     in flight.
//   - Acquire hands out refcounted leases. An evicted grid stays fully
//     usable for existing lease holders; while one still holds it and no
//     Swap has replaced it, a cold Acquire re-installs it instead of
//     reading it again. Once the last lease of an evicted grid is
//     released, OnRetire fires and its file mapping is unmapped.
//   - A load, a Swap and a re-install make an instance resident through
//     the one install step, installLocked.
type GridSet struct {
	maxResident int
	opts        []compactsg.Option

	mu      sync.Mutex // guards sources, every record and lru
	sources map[string]*source
	lru     list.List // resident records, front = most recently used

	// Lifecycle hooks. All of them are called with NO registry lock
	// held, so they may call back into the GridSet freely. They must be
	// set before the registry sees traffic and not changed afterwards.
	//
	// OnLoad fires after a grid was read and installed (took is the wall
	// time of the cold load; mode says whether the payload was
	// memory-mapped or copied); a re-install of a leased evicted instance
	// is not a load and fires nothing. OnLoadFail fires for each load
	// attempt that ended in an error. OnLoadWait fires for each caller
	// that piggybacked on another goroutine's in-flight load of the same
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

	// LoadHook, if set, runs inside every load (no locks held), before
	// the file is opened. It exists for tests and the sgstress chaos
	// harness to inflate or fail loads deterministically.
	LoadHook func(name string) error

	// store, when set, backs the cold-load path of store: locators:
	// cache hit → mmap, miss → fetch → verify → cache → mmap. Set once
	// via SetStore before the registry sees traffic.
	store *store.Store
}

// source is the registry's record of one name. All fields but name
// are guarded by GridSet.mu.
type source struct {
	name string // the registry's own copy of the key (see CanonicalName)
	// from locates the grid, in sgserve's -grid grammar: a file path, or
	// "store:" plus the SGC2 content address it loads from through the
	// tiered store.
	from string
	// version is the per-name monotonic swap counter: 0 for a static
	// registration, bumped by every successful Swap.
	version uint64
	// Shape of the last installed instance, so /v1/grids can describe
	// evicted grids without touching the file again; zero until then.
	dim, level    int
	points, bytes int64

	cur  *entry        // the resident instance; nil while cold
	el   *list.Element // cur's place in GridSet.lru
	load *loadCall     // the in-flight load; nil when none
	// evicted is the instance the LRU last evicted. While it is still
	// leased, a cold Acquire re-installs it. Every install forgets it,
	// so a Swap's older version never comes back; the release that
	// retires it clears it, and Purge never sets it.
	evicted *entry
}

// entry is one loaded instance of a grid: resident, or evicted and
// still leased.
type entry struct {
	src *source
	// open owns the grid and its backing storage: for mmap loads closing
	// it unmaps the file, so it must happen only after the last lease is
	// gone. Closed by whoever drops refs to zero, after OnRetire.
	open *compactsg.OpenGrid
	// refs counts outstanding leases plus one reference owned by the
	// registry while the entry is resident. Eviction drops the registry
	// reference; whoever drops refs to zero runs the retire hook, and
	// refs never rises from zero again (see revive).
	refs atomic.Int64
}

func newEntry(src *source, og *compactsg.OpenGrid, refs int64) *entry {
	e := &entry{src: src, open: og}
	e.refs.Store(refs)
	return e
}

// revive takes the registry's reference and one lease on an evicted
// entry that is still leased. It fails once refs has reached zero, so
// an instance that has begun retiring (unmapping) stays retired.
func (e *entry) revive() bool {
	for {
		n := e.refs.Load()
		if n == 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+2) {
			return true
		}
	}
}

// loadCall is the singleflight slot for one in-flight load.
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
func (l *Lease) Grid() *compactsg.Grid { return l.e.open.Grid }

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
	return &GridSet{maxResident: max(maxResident, 1), opts: opts, sources: make(map[string]*source)}
}

// Add registers a grid under name, located by from in sgserve's -grid
// grammar: a file path, or "store:" plus an SGC2 content address that
// loads through the tiered store (which needs SetStore first; a file
// literally named "store:…" is passed as "./store:…"). Nothing is read
// until the first Get/Acquire (or Preload). Add is safe to call while
// the registry is serving traffic (mid-flight registration is exactly
// what cmd/sgstress exercises).
func (s *GridSet) Add(name, from string) error {
	if name == "" {
		return fmt.Errorf("serve: empty grid name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key, ok := strings.CutPrefix(from, storePrefix); ok {
		if err := store.ValidateKey(key); err != nil {
			return err
		}
		if s.store == nil {
			return fmt.Errorf("serve: grid %q is store-backed but no store is configured", name)
		}
	}
	if _, dup := s.sources[name]; dup {
		return fmt.Errorf("serve: grid %q registered twice", name)
	}
	s.sources[name] = &source{name: name, from: from}
	return nil
}

// AddStored registers a grid that loads from the tiered store by SGC2
// content address: Add(name, "store:"+key).
func (s *GridSet) AddStored(name, key string) error { return s.Add(name, storePrefix+key) }

// SetStore wires a tiered snapshot store behind the cold-load path.
// Must be called before the registry sees traffic.
func (s *GridSet) SetStore(st *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
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
//
// With a store configured, the snapshot is then published into it and
// the name re-keyed under its content address, so post-eviction reloads
// hit the cache (and other nodes can fetch it). Best-effort: the swap
// already succeeded. The previous version's object leaves the local
// cache once no record locates it (a pinned one is left to the cap);
// the remote tier keeps every version.
// Returns the version now installed.
func (s *GridSet) Swap(name, path string, version uint64) (uint64, error) {
	if name == "" {
		return 0, fmt.Errorf("serve: empty grid name")
	}
	og, err := s.load(name, path)
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	src, ok := s.sources[name]
	if !ok {
		src = &source{name: name}
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
	prev := src.from
	src.from, src.version = path, version
	victims := s.installLocked(src, newEntry(src, og, 1)) // the registry's reference; no lease handed out
	s.mu.Unlock()

	if s.OnSwap != nil {
		s.OnSwap(name, version)
	}
	s.evict(victims)
	if s.store == nil {
		return version, nil
	}
	key, perr := s.store.Publish(context.Background(), path)
	s.mu.Lock()
	if perr == nil && src.version == version {
		src.from = storePrefix + key
	}
	displaced, drop := strings.CutPrefix(prev, storePrefix)
	for _, o := range s.sources {
		drop = drop && o.from != prev // keep an object another record locates
	}
	s.mu.Unlock()
	if drop {
		s.store.Drop(displaced) // ErrPinned: a load still reads it; the cap evicts it later
	}
	if s.OnPublish != nil {
		s.OnPublish(name, key, perr)
	}
	return version, nil
}

// Version returns the monotonic swap counter installed under name: 0
// for static registrations (and unknown names), ≥ 1 once Swap has run.
func (s *GridSet) Version(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if src, ok := s.sources[name]; ok {
		return src.version
	}
	return 0
}

// Versions returns the swap counter of every grid that has one
// (version ≥ 1), name → version.
func (s *GridSet) Versions() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[string(b)]
	if !ok {
		return "", false
	}
	return src.name, true
}

// Names returns all registered grid names, sorted.
func (s *GridSet) Names() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// ResidentCount returns how many grids are currently in memory.
func (s *GridSet) ResidentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
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
	s.mu.Lock()
	out := make([]GridInfo, 0, len(s.sources))
	for name, src := range s.sources {
		out = append(out, GridInfo{Name: name, Resident: src.cur != nil,
			Dim: src.dim, Level: src.level, Points: src.points, MemoryBytes: src.bytes, Version: src.version})
	}
	s.mu.Unlock()
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

// Acquire returns a refcounted lease on the named grid, marking it
// most-recently-used. A cold grid is re-installed from its evicted
// instance while a lease still holds that one, and loaded otherwise.
// ctx bounds only the wait for an in-flight load by another goroutine;
// a load this caller leads always runs to completion so the result can
// be shared.
//
// When ctx carries an obs.Span, cold-path time is attributed on it: a
// load this caller led as StageLoad, waiting on someone else's
// in-flight load as StageLoadWait. The resident path and a re-install
// record nothing.
func (s *GridSet) Acquire(ctx context.Context, name string) (*Lease, error) {
	sp := obs.FromContext(ctx)
	for {
		s.mu.Lock()
		src, ok := s.sources[name]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w %q", ErrUnknownGrid, name)
		}
		if e := src.cur; e != nil {
			e.refs.Add(1)
			s.lru.MoveToFront(src.el)
			s.mu.Unlock()
			return &Lease{s: s, e: e}, nil
		}
		if e := src.evicted; e != nil && e.revive() {
			victims := s.installLocked(src, e)
			s.mu.Unlock()
			s.evict(victims)
			return &Lease{s: s, e: e}, nil
		}
		lc := src.load
		if lc == nil {
			lease, err := s.lead(sp, src)
			if errors.Is(err, errStaleLoad) {
				continue // a Swap won the race; pick up its entry
			}
			return lease, err
		}
		s.mu.Unlock()
		if s.OnLoadWait != nil {
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
		if lc.err != nil && !errors.Is(lc.err, errStaleLoad) {
			return nil, lc.err
		}
		// Loaded, or superseded by a Swap: loop to pick up the entry (or
		// reload if other traffic already evicted it again).
	}
}

// lead loads src as the leader of its singleflight. It is entered with
// s.mu held and releases it for the read, which sp is charged for as
// StageLoad. It returns the caller's lease, the load error, or
// errStaleLoad when a Swap installed a newer version while the read
// was in flight: installing it then would roll the name back, so it is
// discarded and every waiter retries against the swapped-in entry.
func (s *GridSet) lead(sp *obs.Span, src *source) (*Lease, error) {
	lc := &loadCall{done: make(chan struct{})}
	src.load = lc
	from, version := src.from, src.version
	s.mu.Unlock()

	start := time.Now()
	og, err := s.load(src.name, from)
	took := time.Since(start)
	sp.Add(obs.StageLoad, took)

	var e *entry
	var victims []*entry
	s.mu.Lock()
	src.load = nil
	if err == nil && src.version != version {
		err = errStaleLoad
	} else if err == nil {
		e = newEntry(src, og, 2) // the registry's reference + this caller's lease
		victims = s.installLocked(src, e)
	}
	lc.err = err
	s.mu.Unlock()
	close(lc.done)

	if errors.Is(err, errStaleLoad) {
		og.Close()
		return nil, err
	}
	if err != nil {
		if s.OnLoadFail != nil {
			s.OnLoadFail(src.name, err)
		}
		return nil, err
	}
	if s.OnLoad != nil {
		s.OnLoad(src.name, og.Mode, took)
	}
	s.evict(victims)
	return &Lease{s: s, e: e}, nil
}

// installLocked makes e the resident, most-recently-used instance of
// src, records its shape on src and forgets src's evicted instance. It
// returns the entries to evict, with no hooks run yet: the instance it
// displaced under the name, if any, first, then those the resident
// bound pushed out of the LRU, each remembered as its record's evicted
// instance. Caller holds s.mu.
func (s *GridSet) installLocked(src *source, e *entry) []*entry {
	g := e.open.Grid
	src.dim, src.level, src.points, src.bytes = g.Dim(), g.Level(), g.Points(), g.MemoryBytes()
	var victims []*entry
	if src.cur != nil {
		victims = append(victims, src.cur)
		s.lru.MoveToFront(src.el)
	} else {
		src.el = s.lru.PushFront(src)
	}
	src.cur, src.evicted = e, nil
	for s.lru.Len() > s.maxResident {
		v := s.lru.Remove(s.lru.Back()).(*source)
		victims = append(victims, v.cur)
		v.cur, v.el, v.evicted = nil, nil, v.cur
	}
	return victims
}

// evict runs the eviction hooks of entries already removed from the
// resident set and drops the registry's reference on each. Called with
// no locks held.
func (s *GridSet) evict(victims []*entry) {
	for _, v := range victims {
		if s.OnEvict != nil {
			s.OnEvict(v.src.name, v.open.Grid)
		}
		s.releaseEntry(v)
	}
}

// releaseEntry drops one reference; the goroutine that drops the last
// reference of an evicted entry clears it from its record, fires
// OnRetire and then releases the grid's backing storage (for mmap
// loads, the munmap — deferred to this point precisely so leased-out
// evicted grids stay readable). Called with no locks held.
func (s *GridSet) releaseEntry(e *entry) {
	if e.refs.Add(-1) != 0 {
		return
	}
	s.mu.Lock()
	if e.src.evicted == e {
		e.src.evicted = nil
	}
	s.mu.Unlock()
	if s.OnRetire != nil {
		s.OnRetire(e.src.name, e.open.Grid)
	}
	e.open.Close()
}

// Purge evicts every resident grid. Grids with outstanding leases stay
// usable until those are released; everything else is retired (and
// unmapped) before Purge returns. The server calls it on Close so a
// shut-down server holds no file mappings.
func (s *GridSet) Purge() {
	s.mu.Lock()
	victims := s.residentLocked()
	for _, v := range victims {
		v.src.cur, v.src.el = nil, nil
	}
	s.lru.Init()
	s.mu.Unlock()
	s.evict(victims)
}

// residentLocked returns the resident entries, most recently used
// first. Caller holds s.mu.
func (s *GridSet) residentLocked() []*entry {
	es := make([]*entry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		es = append(es, el.Value.(*source).cur)
	}
	return es
}

// DropPages sheds the resident pages of name's mapped payload
// (MADV_DONTNEED): the grid stays registered, resident and serving —
// its pages refault from the snapshot file on next touch. This is the
// page-granular eviction knob for memory pressure, as opposed to the
// whole-grid LRU eviction of the resident bound.
func (s *GridSet) DropPages(name string) error {
	s.mu.Lock()
	var e *entry
	if src := s.sources[name]; src != nil && src.cur != nil {
		e = src.cur
		e.refs.Add(1)
	}
	s.mu.Unlock()
	if e == nil {
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
	s.mu.Lock()
	es := s.residentLocked()
	for _, e := range es {
		e.refs.Add(1)
	}
	s.mu.Unlock()
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

// load reads and validates the grid at locator from through
// compactsg.Open, so SGC2 snapshots arrive zero-copy (memory-mapped)
// where the platform allows and everything else goes through the
// copying decoders. A store: locator comes out of the tiered store:
// cache hit → mmap, miss → remote fetch → verify → cache → mmap. No
// registry lock is held.
func (s *GridSet) load(name, from string) (*compactsg.OpenGrid, error) {
	og, err := s.open(name, from)
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", from, err)
	}
	if !og.Compressed() {
		og.Close()
		return nil, fmt.Errorf("serve: %s holds nodal values, not hierarchical coefficients; compress it first", from)
	}
	if og.Mode == compactsg.LoadMmap {
		// Start faulting the payload in now: a cold-loaded grid is about
		// to be evaluated, and for store-backed grids the pages were just
		// written, so they are still dirty in the page cache anyway.
		og.Advise(compactsg.AdviseWillNeed)
	}
	return og, nil
}

// open runs LoadHook and opens from, for load.
func (s *GridSet) open(name, from string) (*compactsg.OpenGrid, error) {
	if s.LoadHook != nil {
		if err := s.LoadHook(name); err != nil {
			return nil, err
		}
	}
	key, stored := strings.CutPrefix(from, storePrefix)
	if !stored {
		return compactsg.Open(from, s.opts...)
	}
	if s.store == nil {
		return nil, errors.New("no store configured")
	}
	obj, err := s.store.Get(context.Background(), key)
	if err != nil {
		return nil, err
	}
	// The pin covers exactly the Open window; once mmap'd, the payload
	// survives the cache evicting (unlinking) the file.
	og, err := compactsg.Open(obj.Path(), s.opts...)
	obj.Release()
	var ce *core.CorruptError
	if errors.As(err, &ce) {
		// A cached object corrupt at open time (disk rot after admission)
		// is dropped so the next load refetches it.
		s.store.Drop(key)
	}
	return og, err
}
