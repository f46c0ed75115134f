package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compactsg"
)

func writeGrid(t *testing.T, compressed bool) string {
	t.Helper()
	g, err := compactsg.New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(func(x []float64) float64 { return 16 * x[0] * (1 - x[0]) * x[1] * (1 - x[1]) })
	if !compressed {
		if err := g.Decompress(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "g.sg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParsePoint(t *testing.T) {
	x, err := parsePoint("0.5, 0.25", 2)
	if err != nil || x[0] != 0.5 || x[1] != 0.25 {
		t.Fatalf("parsePoint: %v, %v", x, err)
	}
	for _, bad := range []string{"0.5", "a,b", "0.5,0.5,0.5", ""} {
		if _, err := parsePoint(bad, 2); err == nil {
			t.Errorf("parsePoint(%q) accepted", bad)
		}
	}
}

func TestFormatPoint(t *testing.T) {
	if got := formatPoint([]float64{0.5, 0.125}); got != "0.5,0.125" {
		t.Errorf("formatPoint = %q", got)
	}
}

func TestRunWithArgsPoints(t *testing.T) {
	path := writeGrid(t, true)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "0.5,0.5", "0.25,0.75"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 result lines, got %q", out.String())
	}
	if !strings.HasPrefix(lines[0], "0.5,0.5\t") {
		t.Errorf("line 0: %q", lines[0])
	}
	// Center of the bump: value 1.
	if !strings.Contains(lines[0], "\t1") {
		t.Errorf("center value wrong: %q", lines[0])
	}
}

func TestRunWithStdin(t *testing.T) {
	path := writeGrid(t, true)
	var out bytes.Buffer
	in := strings.NewReader("0.5,0.5\n\n0.1,0.9\n")
	if err := run([]string{"-i", path}, in, &out); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 2 {
		t.Fatalf("expected 2 results, got %d", got)
	}
}

func TestRunRandomPoints(t *testing.T) {
	path := writeGrid(t, true)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-random", "17"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 17 {
		t.Fatalf("expected 17 results, got %d", got)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-i", "/nonexistent.sg", "0.5,0.5"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("missing file accepted")
	}
	nodal := writeGrid(t, false)
	if err := run([]string{"-i", nodal, "0.5,0.5"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("nodal (uncompressed) grid accepted")
	}
	ok := writeGrid(t, true)
	if err := run([]string{"-i", ok}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("no query points accepted")
	}
	if err := run([]string{"-i", ok, "0.5"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("wrong-dimension point accepted")
	}
}

// TestRunNaNCoordinate: strconv.ParseFloat accepts "NaN", so a NaN
// coordinate reaches the kernel; it must evaluate to NaN, not panic.
func TestRunNaNCoordinate(t *testing.T) {
	path := writeGrid(t, true)
	var out bytes.Buffer
	in := strings.NewReader("NaN,0.5\n0.5,0.5\n")
	if err := run([]string{"-i", path}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[0] != "NaN,0.5\tNaN" || !strings.HasPrefix(lines[1], "0.5,0.5\t1") {
		t.Fatalf("unexpected output %q", out.String())
	}
}
