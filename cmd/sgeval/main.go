// Command sgeval is the decompression step of the paper's pipeline
// (Fig. 1: Storage → Decompress → Visualization): it loads a compressed
// .sg file and evaluates the sparse grid function at query points.
//
//	sgeval -i field.sg 0.5,0.25,0.75        # one point per argument
//	echo "0.1,0.2,0.3" | sgeval -i field.sg # or one point per stdin line
//	sgeval -i field.sg -random 1000         # or a random batch
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"compactsg"
	"compactsg/internal/par"
	"compactsg/internal/report"
	"compactsg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgeval:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgeval", flag.ContinueOnError)
	in := fs.String("i", "grid.sg", "compressed grid file")
	random := fs.Int("random", 0, "evaluate at N random points instead of reading them")
	seed := fs.Int64("seed", 1, "random point seed")
	workers := fs.Int("workers", 0, "evaluation workers (0 = auto: GOMAXPROCS)")
	timing := fs.Bool("time", false, "print timing to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := compactsg.LoadAny(f, compactsg.WithWorkers(*workers))
	if err != nil {
		return err
	}
	if !g.Compressed() {
		return fmt.Errorf("%s holds nodal values; compress it first", *in)
	}

	var xs [][]float64
	switch {
	case *random > 0:
		xs = workload.Points(*seed, *random, g.Dim())
	case fs.NArg() > 0:
		for _, arg := range fs.Args() {
			x, err := parsePoint(arg, g.Dim())
			if err != nil {
				return err
			}
			xs = append(xs, x)
		}
	default:
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			x, err := parsePoint(line, g.Dim())
			if err != nil {
				return err
			}
			xs = append(xs, x)
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	if len(xs) == 0 {
		return fmt.Errorf("no query points given")
	}

	timer := report.StartTimer()
	out, err := g.EvaluateBatch(xs, nil)
	if err != nil {
		return err
	}
	sec := timer.Seconds()
	w := bufio.NewWriter(stdout)
	for k, v := range out {
		fmt.Fprintf(w, "%s\t%.12g\n", formatPoint(xs[k]), v)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "%d evaluations in %s (%s/point, %d workers)\n",
			len(xs), report.Seconds(sec), report.Seconds(sec/float64(len(xs))), par.Resolve(*workers))
	}
	return nil
}

func parsePoint(s string, dim int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("point %q has %d coordinates, grid has %d dimensions", s, len(parts), dim)
	}
	x := make([]float64, dim)
	for t, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("point %q: %w", s, err)
		}
		x[t] = v
	}
	return x, nil
}

func formatPoint(x []float64) string {
	parts := make([]string, len(x))
	for t, v := range x {
		parts[t] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return strings.Join(parts, ",")
}
