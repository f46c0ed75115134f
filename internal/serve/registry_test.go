package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/core"
)

// newTestSet registers n grids (named q0..qn-1) in a fresh registry
// bounded to maxResident.
func newTestSet(t *testing.T, maxResident, n int) *GridSet {
	t.Helper()
	dir := t.TempDir()
	s := NewGridSet(maxResident)
	for k := 0; k < n; k++ {
		p, _ := writeGrid(t, dir, 2, 3)
		np := filepath.Join(dir, fmt.Sprintf("q%d.sg", k))
		if err := os.Rename(p, np); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(fmt.Sprintf("q%d", k), np); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSingleflightLoad: many concurrent Gets of one cold grid must
// share a single file load.
func TestSingleflightLoad(t *testing.T) {
	s := newTestSet(t, 2, 1)
	var loads, waits atomic.Int64
	s.LoadHook = func(string) error {
		loads.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return nil
	}
	s.OnLoadWait = func(string) { waits.Add(1) }

	const callers = 16
	var wg sync.WaitGroup
	grids := make([]any, callers)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g, err := s.Get("q0")
			if err != nil {
				t.Error(err)
				return
			}
			grids[k] = g
		}(k)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d concurrent Gets performed %d loads, want 1", callers, n)
	}
	for k := 1; k < callers; k++ {
		if grids[k] != grids[0] {
			t.Fatalf("caller %d got a different grid instance", k)
		}
	}
	if waits.Load() == 0 {
		t.Error("no caller was recorded as a singleflight follower")
	}
}

// TestColdLoadDoesNotBlockResident is the tentpole property: while one
// grid is stuck in a slow load, Gets of an already-resident grid must
// complete immediately instead of queueing behind the registry lock.
func TestColdLoadDoesNotBlockResident(t *testing.T) {
	s := newTestSet(t, 2, 2)
	const delay = 200 * time.Millisecond
	loading := make(chan struct{})
	var once sync.Once
	s.LoadHook = func(name string) error {
		if name == "q1" {
			once.Do(func() { close(loading) })
			time.Sleep(delay)
		}
		return nil
	}
	if _, err := s.Get("q0"); err != nil { // q0 resident
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Get("q1") // slow cold load
		done <- err
	}()
	<-loading // q1's load is now holding whatever it holds

	start := time.Now()
	const hotGets = 100
	for k := 0; k < hotGets; k++ {
		if _, err := s.Get("q0"); err != nil {
			t.Fatal(err)
		}
	}
	hot := time.Since(start)
	if hot > delay/2 {
		t.Fatalf("%d resident Gets took %v during a %v cold load — load is blocking the fast path", hotGets, hot, delay)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAcquireCtxCancelWhileWaiting: a follower waiting on someone
// else's load honors its context.
func TestAcquireCtxCancelWhileWaiting(t *testing.T) {
	s := newTestSet(t, 2, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.LoadHook = func(string) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	go s.Get("q0") // leader, parked in LoadHook
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Acquire(ctx, "q0")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	close(release)
}

// TestLeaseRetire: an evicted grid stays usable through its lease and
// OnRetire fires exactly once, when the last lease is released.
func TestLeaseRetire(t *testing.T) {
	s := newTestSet(t, 1, 2)
	var retired atomic.Int64
	retirees := make(chan string, 4)
	s.OnRetire = func(name string, _ *compactsg.Grid) {
		retired.Add(1)
		retirees <- name
	}

	lease, err := s.Acquire(context.Background(), "q0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("q1"); err != nil { // evicts q0 (maxResident 1)
		t.Fatal(err)
	}
	if n := s.ResidentCount(); n != 1 {
		t.Fatalf("resident = %d, want 1", n)
	}
	if got := retired.Load(); got != 0 {
		t.Fatalf("OnRetire fired %d times while a lease is still held", got)
	}
	// The evicted instance still evaluates for its lease holder.
	if _, err := lease.Grid().Evaluate([]float64{0.5, 0.5}); err != nil {
		t.Fatalf("evicted-but-leased grid unusable: %v", err)
	}
	lease.Release()
	lease.Release() // idempotent
	select {
	case name := <-retirees:
		if name != "q0" {
			t.Fatalf("retired %q, want q0", name)
		}
	case <-time.After(time.Second):
		t.Fatal("OnRetire never fired after the last release")
	}
	if got := retired.Load(); got != 1 {
		t.Fatalf("OnRetire fired %d times, want 1", got)
	}
}

// TestAcquireReinstallsLeasedEvictedGrid: a cold Acquire of a name
// whose evicted instance is still leased re-installs that instance
// instead of reading the file again, and a Swap forgets it, so the old
// version never comes back.
func TestAcquireReinstallsLeasedEvictedGrid(t *testing.T) {
	baseline := core.ActiveMappings()
	s := newTestSet(t, 1, 2)
	var loads atomic.Int64
	s.LoadHook = func(string) error {
		loads.Add(1)
		return nil
	}
	ctx := context.Background()
	held, err := s.Acquire(ctx, "q0")
	if err != nil {
		t.Fatal(err)
	}
	held1, err := s.Acquire(ctx, "q1") // evicts q0 (maxResident 1)
	if err != nil {
		t.Fatal(err)
	}
	nLoads, maps := loads.Load(), core.ActiveMappings()
	again, err := s.Acquire(ctx, "q0") // evicts q1, which held1 keeps mapped
	if err != nil {
		t.Fatal(err)
	}
	if again.Grid() != held.Grid() {
		t.Fatal("Acquire of an evicted, still-leased grid returned a new instance")
	}
	if n := loads.Load(); n != nLoads {
		t.Fatalf("re-install read the file: %d loads, want %d", n, nLoads)
	}
	if n := core.ActiveMappings(); n != maps {
		t.Fatalf("re-install mapped the file again: %d mappings, want %d", n, maps)
	}
	if gi := s.Info(); !gi[0].Resident || gi[1].Resident {
		t.Fatalf("after re-install: %+v, want q0 resident and q1 evicted", gi)
	}
	again.Release()
	held1.Release()

	// Evict q0 again while held, swap in a new version, and purge it:
	// the next cold Acquire must load the swapped version.
	if _, err := s.Get("q1"); err != nil {
		t.Fatal(err)
	}
	p2, ref2 := writeScaledGrid(t, t.TempDir(), "v2.sg", 2, 3, 2)
	if _, err := s.Swap("q0", p2, 0); err != nil {
		t.Fatal(err)
	}
	s.Purge()
	lease, err := s.Acquire(ctx, "q0")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Grid() == held.Grid() {
		t.Fatal("a Swap's displaced, still-leased instance was handed out again")
	}
	x := []float64{0.25, 0.5}
	if got, want := mustEvalRef(t, lease.Grid(), x), mustEvalRef(t, ref2, x); got != want {
		t.Fatalf("after Swap and Purge: q0(%v) = %g, want the swapped version's %g", x, got, want)
	}
	lease.Release()
	held.Release()
	s.Purge()
	if n := core.ActiveMappings(); n != baseline {
		t.Fatalf("%d file mappings leaked", n-baseline)
	}
}

// FuzzRegistryOps drives one registry (MaxResident 2, three names, two
// on-disk versions of each) on one goroutine through a sequence of
// ops: acquire-and-hold, release, Swap to the other version, Purge and
// DropPages. After every op, each held lease must still evaluate its
// own version bit for bit, a fresh Acquire must serve the installed
// version, no Version may decrease, and ResidentCount must stay within
// the bound and agree with Info. Releasing every lease and purging must
// leave no file mapping behind.
func FuzzRegistryOps(f *testing.F) {
	const names = 3
	x := []float64{0.3, 0.7}
	var paths [names][2]string
	var want [names][2]uint64
	dir := f.TempDir()
	for n := range names {
		for v := range 2 {
			sub := filepath.Join(dir, fmt.Sprintf("q%d.v%d", n, v))
			if err := os.Mkdir(sub, 0o755); err != nil {
				f.Fatal(err)
			}
			var ref *compactsg.Grid
			paths[n][v], ref = writeGrid(f, sub, 2, 2+2*n+v) // distinct level, distinct value
			y, err := ref.Evaluate(x)
			if err != nil {
				f.Fatal(err)
			}
			want[n][v] = math.Float64bits(y)
		}
	}
	// An op byte is kind (op%5: acquire-and-hold, release, swap, purge,
	// drop pages) and argument (op/5: a name, or for release the held
	// lease to drop).
	f.Add([]byte{})
	f.Add([]byte{0, 5, 10})
	f.Add([]byte{0, 5, 10, 1, 1, 1})
	f.Add([]byte{2, 7, 12, 3})
	f.Add([]byte{0, 2, 4, 1, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		baseline := core.ActiveMappings()
		s := NewGridSet(2)
		for n := range names {
			if err := s.Add(fmt.Sprintf("q%d", n), paths[n][0]); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		var installed [names]int
		var versions [names]uint64
		type held struct {
			l    *Lease
			want uint64
		}
		var leases []held
		bits := func(l *Lease) uint64 {
			y, err := l.Grid().Evaluate(x)
			if err != nil {
				t.Fatal(err)
			}
			return math.Float64bits(y)
		}
		for k, op := range ops[:min(len(ops), 64)] {
			n, name := int(op/5)%names, fmt.Sprintf("q%d", int(op/5)%names)
			switch op % 5 {
			case 0:
				l, err := s.Acquire(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				leases = append(leases, held{l, want[n][installed[n]]})
			case 1:
				if len(leases) > 0 {
					j := int(op/5) % len(leases)
					leases[j].l.Release()
					leases = append(leases[:j], leases[j+1:]...)
				}
			case 2:
				if _, err := s.Swap(name, paths[n][1-installed[n]], 0); err != nil {
					t.Fatal(err)
				}
				installed[n] = 1 - installed[n]
			case 3:
				s.Purge()
			case 4:
				if err := s.DropPages(name); err != nil {
					t.Fatal(err)
				}
			}
			for j, h := range leases {
				if got := bits(h.l); got != h.want {
					t.Fatalf("op %d (%d): held lease %d evaluates %x, want %x", k, op, j, got, h.want)
				}
			}
			l, err := s.Acquire(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if got := bits(l); got != want[n][installed[n]] {
				t.Fatalf("op %d (%d): fresh Acquire of %s evaluates %x, want version %d's %x", k, op, name, got, installed[n], want[n][installed[n]])
			}
			l.Release()
			for m := range names {
				v := s.Version(fmt.Sprintf("q%d", m))
				if v < versions[m] {
					t.Fatalf("op %d (%d): q%d version went back from %d to %d", k, op, m, versions[m], v)
				}
				versions[m] = v
			}
			resident := 0
			for _, gi := range s.Info() {
				if gi.Resident {
					resident++
				}
			}
			if rc := s.ResidentCount(); rc > 2 || rc != resident {
				t.Fatalf("op %d (%d): ResidentCount %d, %d Info rows resident, bound 2", k, op, rc, resident)
			}
		}
		for _, h := range leases {
			h.l.Release()
		}
		s.Purge()
		if n := core.ActiveMappings(); n != baseline {
			t.Fatalf("%d file mappings leaked", n-baseline)
		}
	})
}

// TestPreloadContinuesPastBrokenGrid: one corrupt grid file must not
// keep later healthy grids cold, and the error must name the bad grid.
func TestPreloadContinuesPastBrokenGrid(t *testing.T) {
	dir := t.TempDir()
	s := NewGridSet(8)
	// "a" is garbage, "b" and "c" are healthy.
	bad := filepath.Join(dir, "a.sg")
	if err := os.WriteFile(bad, []byte("not a grid"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", bad); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", "c"} {
		p, _ := writeGrid(t, dir, 2, 3)
		np := filepath.Join(dir, name+"-grid.sg")
		if err := os.Rename(p, np); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(name, np); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Preload()
	if err == nil {
		t.Fatal("Preload over a broken grid returned nil")
	}
	if !strings.Contains(err.Error(), "a.sg") {
		t.Errorf("aggregated error %q does not name the broken file", err)
	}
	if n := s.ResidentCount(); n != 2 {
		t.Fatalf("resident after Preload = %d, want 2 (healthy grids must load)", n)
	}
	for _, gi := range s.Info() {
		if gi.Name != "a" && !gi.Resident {
			t.Errorf("healthy grid %q left cold by Preload", gi.Name)
		}
	}
}

// TestEvictionUnderLoad hammers Get/Evaluate across more grids than
// resident slots from many goroutines (run under -race in CI) and then
// checks that no goroutines leaked.
func TestEvictionUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestSet(t, 2, 6)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 1)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := []float64{0.3, 0.6}
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("q%d", (w+k)%6)
				lease, err := s.Acquire(context.Background(), name)
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				v, err := lease.Grid().Evaluate(x)
				lease.Release()
				if err != nil || math.IsNaN(v) {
					select {
					case errc <- fmt.Errorf("evaluate %s: v=%v err=%v", name, v, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if n := s.ResidentCount(); n > 2 {
		t.Fatalf("resident = %d, want ≤ 2", n)
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak waits for the goroutine count to settle back to
// (roughly) the baseline; background drains are given time to finish.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= baseline+2 { // tolerate runtime/test helpers
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
}
