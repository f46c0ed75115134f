// Command perfbench is the repository's benchmark harness. It runs one
// named workload against the code of this checkout and prints every
// metric by name and unit, then a last line of JSON:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set listed in
// BENCHMARK.json; with -trace 1 they are the per-layer set, measured in
// a separate traced run (see layers.go). Every workload checks every
// output it receives against a reference computed outside the timed
// window; a wrong value prints the reason on stderr and exits 1
// without a result line.
//
// perfbench/run.sh builds this program and the sgserve/sgproxy binaries
// it drives, then runs it from the repository root:
//
//	bash perfbench/run.sh --workload kernel --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the harness inputs. Everything a workload generates is
// derived from seed.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// overhead, in a traced run, also runs an untraced window first so
	// the run can report bench.trace_overhead_share.
	overhead bool
	binDir   string // holds the sgserve and sgproxy binaries under test
	workDir  string // scratch space for snapshots, stores and logs
	// wrongRef flips one reference value before the timed window. It
	// exists so the harness's own tests can prove the checker fails the
	// run on a wrong value.
	wrongRef bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects what a run measured and verified.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	checks    []check
	notes     []string
}

// check is one counter-algebra identity evaluated over a timed window.
type check struct {
	name string
	ok   bool
	got  string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// expect records a counter identity; a violated identity fails the run.
func (r *result) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// errWrongValue marks an output that differs from its reference. It
// always fails the run, unlike a request error, which only counts as
// failed.
var errWrongValue = errors.New("wrong value")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrongValue, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*options, *result) error{
	"kernel":       runKernel,
	"serve-batch":  runServeBatch,
	"proxy-single": runProxySingle,
	"online":       runOnline,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: kernel, serve-batch, proxy-single or online")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.binDir, "bin", "", "directory holding the sgserve and sgproxy binaries")
	fs.StringVar(&o.workDir, "work", "", "scratch directory (removed afterwards)")
	fs.BoolVar(&o.wrongRef, "wrong-reference", false, "corrupt one reference value (tests the checker)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	body, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) || o.binDir == "" || o.workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (kernel|serve-batch|proxy-single|online), -seconds > 0, -trace 0|1, -bin and -work")
		return 2
	}
	dir, err := os.MkdirTemp(mkdirAll(o.workDir), o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.workDir = dir
	defer os.RemoveAll(dir)

	// A signal must still stop the servers this run started.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	defer stopAll()

	printHost(&o)
	res := newResult()
	if o.trace {
		err = runTraced(&o, res)
	} else {
		err = body(&o, res)
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "VIOLATED"
			if err == nil {
				err = fmt.Errorf("counter check %s violated: %s", c.name, c.got)
			}
		}
		fmt.Printf("check %-44s %s (%s)\n", c.name, status, c.got)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		return 1
	}
	if res.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", o.workload)
		return 1
	}
	names := make([]string, 0, len(res.metrics))
	for n, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", n, m.Value)
			return 1
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// printHost records the facts a reader needs to compare runs across
// hosts: core counts, cache sizes and the toolchain.
func printHost(o *options) {
	l2, l3 := cacheBytes(2), cacheBytes(3)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s L2=%s L3=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), mib(l2), mib(l3))
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.window.Seconds(), o.trace)
	if runtime.GOMAXPROCS(0) <= 2 {
		fmt.Printf("host: %d cores, so par.* efficiencies top out at %dx and the server workloads share the cores with this load generator (three processes in proxy-single)\n",
			runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	}
}

// cacheBytes reads the size of cpu0's cache at the given level from
// sysfs (0 when unknown).
func cacheBytes(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return n * mult
		}
	}
	return 0
}

func mib(b int64) string {
	if b == 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.4gMiB", float64(b)/(1<<20))
}

// workingSet prints a workload's working-set size against the per-core
// L2, the comparison that decides whether a kernel is bandwidth-bound.
func workingSet(what string, bytes int64) {
	l2 := cacheBytes(2)
	ratio := "unknown L2"
	if l2 > 0 {
		ratio = fmt.Sprintf("%.3gx L2", float64(bytes)/float64(l2))
	}
	fmt.Printf("working set: %s %.4g MB (%s)\n", what, float64(bytes)/1e6, ratio)
}
