package serve

// End-to-end coverage of the tiered snapshot store behind the
// registry's cold-load path: store-backed grids resolve by content
// address, online swaps publish into the store, a corrupt cached
// object self-heals via refetch, and the server surfaces the store
// counters on /metrics.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/core"
	"compactsg/internal/store"
)

// newStoreSet builds a GridSet over a store whose remote tier is the
// given FSRemote directory, with one published snapshot registered as
// a store-backed grid named "g".
func newStoreSet(t *testing.T, capBytes int64) (*GridSet, *store.Store, *compactsg.Grid, string) {
	t.Helper()
	path, ref := writeGrid(t, t.TempDir(), 2, 4)
	key, err := store.KeyOfFile(path)
	if err != nil {
		t.Fatal(err)
	}
	remoteDir := t.TempDir()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(remoteDir, key+".sg"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir(), CapBytes: capBytes, Remote: &store.FSRemote{Dir: remoteDir}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewGridSet(4)
	s.SetStore(st)
	if err := s.AddStored("g", key); err != nil {
		t.Fatal(err)
	}
	return s, st, ref, key
}

func TestStoreBackedColdLoad(t *testing.T) {
	baseline := core.ActiveMappings()
	s, st, ref, key := newStoreSet(t, 0)

	// First load is a miss: remote fetch, verify, cache, mmap.
	g, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.6}
	want, _ := ref.Evaluate(x)
	if got, _ := g.Evaluate(x); got != want {
		t.Fatalf("store-backed eval = %v, want %v", got, want)
	}
	if st := st.Stats(); st.Misses != 1 || st.Fills != 1 || st.Hits != 0 {
		t.Fatalf("first load stats: %+v", st)
	}
	if !st.Contains(key) {
		t.Fatal("fetched object not cached")
	}

	// Purge and reload: now a pure cache hit — no remote traffic.
	s.Purge()
	if _, err := s.Get("g"); err != nil {
		t.Fatal(err)
	}
	if st := st.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("reload stats: %+v", st)
	}

	// The registry can report and drop resident payload pages for
	// store-backed mmaps.
	if rb := s.ResidentPayloadBytes(); rb < 0 {
		t.Fatalf("resident payload bytes = %d", rb)
	}
	if err := s.DropPages("g"); err != nil {
		t.Fatal(err)
	}
	want2, _ := ref.Evaluate(x)
	if g2, _ := s.Get("g"); g2 != nil {
		if got, _ := g2.Evaluate(x); got != want2 {
			t.Fatalf("eval after DropPages = %v, want %v", got, want2)
		}
	}

	s.Purge()
	if got := core.ActiveMappings(); got != baseline {
		t.Fatalf("after Purge: ActiveMappings %d, want %d", got, baseline)
	}
}

func TestSwapPublishesToStore(t *testing.T) {
	s, st, _, _ := newStoreSet(t, 0)
	remote := st.Stats() // quiet so far
	if remote.Fills != 0 {
		t.Fatalf("unexpected store traffic before swap: %+v", remote)
	}

	published := make(chan string, 1)
	s.OnPublish = func(name, key string, err error) {
		if err != nil {
			t.Errorf("publish %s: %v", name, err)
		}
		published <- key
	}

	dir := t.TempDir()
	path2, ref2 := writeGrid(t, dir, 2, 5)
	if _, err := s.Swap("h", path2, 0); err != nil {
		t.Fatal(err)
	}
	var key2 string
	select {
	case key2 = <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("OnPublish never fired")
	}
	if !st.Contains(key2) {
		t.Fatal("swap did not publish the snapshot into the local cache")
	}

	// The original file can now vanish: after a purge the registry
	// reloads "h" from the store by content address.
	if err := os.Remove(path2); err != nil {
		t.Fatal(err)
	}
	s.Purge()
	g, err := s.Get("h")
	if err != nil {
		t.Fatalf("reload after unlink: %v", err)
	}
	x := []float64{0.25, 0.75}
	want, _ := ref2.Evaluate(x)
	if got, _ := g.Evaluate(x); got != want {
		t.Fatalf("post-publish eval = %v, want %v", got, want)
	}
	s.Purge()
}

func TestCorruptCachedObjectSelfHeals(t *testing.T) {
	s, st, ref, key := newStoreSet(t, 0)
	if _, err := s.Get("g"); err != nil {
		t.Fatal(err)
	}
	s.Purge()

	// Rot the cached object on disk behind the store's back.
	objPath := filepath.Join(st.Dir(), key+".sg")
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[core.SnapshotAlign+3] ^= 0x10
	if err := os.WriteFile(objPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The next load opens the rotten object, fails checksum, and drops
	// it from the cache; the load after that refetches and succeeds.
	if _, err := s.Get("g"); err == nil {
		t.Fatal("corrupt cached object served")
	}
	if st.Contains(key) {
		t.Fatal("corrupt object still cached after failed open")
	}
	g, err := s.Get("g")
	if err != nil {
		t.Fatalf("self-heal reload: %v", err)
	}
	x := []float64{0.5, 0.5}
	want, _ := ref.Evaluate(x)
	if got, _ := g.Evaluate(x); got != want {
		t.Fatalf("healed eval = %v, want %v", got, want)
	}
	if stats := st.Stats(); stats.Misses != 2 || stats.Fills != 2 {
		t.Fatalf("heal stats: %+v", stats)
	}
	s.Purge()
}

func TestServerStoreMetrics(t *testing.T) {
	path, ref := writeGrid(t, t.TempDir(), 2, 4)
	key, err := store.KeyOfFile(path)
	if err != nil {
		t.Fatal(err)
	}
	remoteDir := t.TempDir()
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(filepath.Join(remoteDir, key+".sg"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir(), Remote: &store.FSRemote{Dir: remoteDir}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	t.Cleanup(func() { srv.Close(); st.Close() })
	if err := srv.AddGrid("g", "store:"+key); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	x := []float64{0.4, 0.8}
	rec := postJSON(t, h, "/v1/eval", EvalRequest{Grid: "g", Point: x})
	if rec.Code != 200 {
		t.Fatalf("eval status = %d, body %s", rec.Code, rec.Body)
	}
	var er evalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if want, _ := ref.Evaluate(x); er.Value != want {
		t.Fatalf("store-backed eval over HTTP = %v, want %v", er.Value, want)
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	body := mrec.Body.String()
	for _, metric := range []string{
		"sgserve_store_hits 0",
		"sgserve_store_misses 1",
		"sgserve_store_fills 1",
		"sgserve_store_cap_bytes 0",
		"sgserve_mapped_resident_bytes",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %q:\n%s", metric, body)
		}
	}
	if !strings.Contains(body, "sgserve_store_size_bytes") {
		t.Fatal("store size gauge missing")
	}
}

func TestBlobEndpointOnServer(t *testing.T) {
	blobDir := t.TempDir()
	srv := New(Config{BlobDir: blobDir})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	path, _ := writeGrid(t, t.TempDir(), 2, 3)
	key, err := store.KeyOfFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	put := httptest.NewRequest("PUT", "/v1/blobs/"+key, strings.NewReader(string(raw)))
	put.ContentLength = int64(len(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT status = %d, body %s", rec.Code, rec.Body)
	}
	get := httptest.NewRequest("GET", "/v1/blobs/"+key, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, get)
	if rec.Code != 200 || rec.Body.Len() != len(raw) {
		t.Fatalf("GET status = %d, len %d (want %d)", rec.Code, rec.Body.Len(), len(raw))
	}

	// An sgserve pointed at this one as its remote can cold-load the
	// grid end to end over HTTP.
	tsrv := httptest.NewServer(h)
	defer tsrv.Close()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Remote: &store.HTTPRemote{Base: tsrv.URL + "/v1/blobs"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	obj, err := st.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Release()
	og, err := compactsg.Open(obj.Path())
	if err != nil {
		t.Fatal(err)
	}
	og.Close()
}

// TestSwapDropsDisplacedStoreObject: each online refine publishes its
// snapshot into the store, and the swap that displaces a version drops
// that version's object from the local cache unless another name still
// locates it, so a remote-less store holds one object per name instead
// of one per refine.
func TestSwapDropsDisplacedStoreObject(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Online: OnlineConfig{Enabled: true, SnapshotDir: t.TempDir()}})
	t.Cleanup(func() { s.Close(); st.Close() })
	h := s.Handler()
	refine := func(round int) string {
		t.Helper()
		obs := observeRequest{Points: [][]float64{{0.5, 0.5}}, Values: []float64{float64(round + 1)}}
		if rec := postJSON(t, h, "/v1/grids/g/observe", obs); rec.Code != 200 {
			t.Fatalf("round %d: observe status %d: %s", round, rec.Code, rec.Body)
		}
		res, err := s.RefineOnline("g")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Swapped {
			t.Fatalf("round %d did not swap: %+v", round, res)
		}
		key, err := store.KeyOfFile(res.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	var key string
	for round := 0; round < 30; round++ {
		key = refine(round)
	}
	if stats := st.Stats(); stats.Objects != 1 || !st.Contains(key) {
		t.Fatalf("after 30 swaps the cache holds %d objects (%d B), want only the installed %s", stats.Objects, stats.SizeBytes, key)
	}

	// The installed version still reloads from the cache.
	s.Grids().Purge()
	hits := st.Stats().Hits
	if _, err := s.Grids().Get("g"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Hits; got != hits+1 {
		t.Fatalf("reload after purge: %d store hits, want %d", got, hits+1)
	}

	// A second name on the installed key keeps its object across the
	// next swap of g.
	if err := s.AddGrid("pin", "store:"+key); err != nil {
		t.Fatal(err)
	}
	next := refine(30)
	if !st.Contains(key) || !st.Contains(next) || st.Stats().Objects != 2 {
		t.Fatalf("cache after swapping a key another name locates: %+v, want %s and %s", st.Stats(), key, next)
	}
}
