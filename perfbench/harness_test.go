package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests hold the harness to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// harness builds the servers and this harness once into a temp dir.
func harness(t *testing.T) (bin string, spec benchSpec) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin = t.TempDir()
	for _, b := range []struct{ dir, pkgs string }{{"..", "./cmd/sgserve ./cmd/sgproxy"}, {".", "."}} {
		args := append([]string{"build", "-o", bin + "/"}, strings.Fields(b.pkgs)...)
		cmd := exec.Command("go", args...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return bin, spec
}

// runHarness runs one workload and returns its stdout and whether it
// exited 0.
func runHarness(t *testing.T, bin string, args ...string) (string, bool) {
	t.Helper()
	args = append([]string{"-bin", bin, "-work", t.TempDir()}, args...)
	cmd := exec.Command(filepath.Join(bin, "perfbench"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Logf("perfbench %v: %v\n%s", args, err, stderr.String())
	}
	return string(out), err == nil
}

// lastLine decodes the result line.
func lastLine(t *testing.T, out string) (res struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestEveryMetricPrinted runs every workload briefly, untraced and then
// traced, and requires each metric BENCHMARK.json names, with its unit,
// in the result line.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin, spec := harness(t)
	for _, w := range spec.Workloads {
		out, ok := runHarness(t, bin, "-workload", w.Name, "-seed", "3", "-seconds", "0.5", "-trace", "0")
		if !ok {
			t.Fatalf("%s failed", w.Name)
		}
		res := lastLine(t, out)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s printed %d end-to-end metrics, BENCHMARK.json lists %d", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
	}
	out, ok := runHarness(t, bin, "-workload", "online", "-seed", "3", "-seconds", "0.5", "-trace", "1")
	if !ok {
		t.Fatal("traced run failed")
	}
	res := lastLine(t, out)
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

// TestWrongReferenceFailsRun proves the checker bites: with one
// reference value off by one ulp, every workload exits nonzero without
// a result line.
func TestWrongReferenceFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin, spec := harness(t)
	for _, w := range spec.Workloads {
		out, ok := runHarness(t, bin, "-workload", w.Name, "-seed", "3", "-seconds", "0.5", "-trace", "0", "-wrong-reference")
		if ok {
			t.Errorf("%s passed with a wrong reference value", w.Name)
		}
		if strings.Contains(out, `"correct"`) {
			t.Errorf("%s printed a result line despite a wrong value", w.Name)
		}
	}
}
