// Command sgview is the visualization end of the paper's Fig. 1
// pipeline: it loads a compressed .sg file, decompresses a 2d slice
// through the domain, and renders it as a PNG heatmap (optionally with
// isolines) or an ASCII preview.
//
//	sgview -i field.sg -x 0 -y 1 -anchor 0.5,0.5,0.5 -o slice.png
//	sgview -i field.sg -ascii
package main

import (
	"flag"
	"fmt"
	"image/color"
	"io"
	"os"
	"strconv"
	"strings"

	"compactsg"
	"compactsg/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgview:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgview", flag.ContinueOnError)
	in := fs.String("i", "grid.sg", "compressed grid file")
	axisX := fs.Int("x", 0, "dimension on the horizontal axis")
	axisY := fs.Int("y", 1, "dimension on the vertical axis")
	anchorStr := fs.String("anchor", "", "comma-separated pinned coordinates (default 0.5 everywhere)")
	width := fs.Int("w", 256, "raster width")
	height := fs.Int("h", 256, "raster height")
	out := fs.String("o", "slice.png", "output PNG file")
	cmName := fs.String("colormap", "inferno", "colormap: inferno|gray|diverging")
	isoStr := fs.String("iso", "", "comma-separated isoline levels")
	ascii := fs.Bool("ascii", false, "print an ASCII heatmap instead of writing a PNG")
	workers := fs.Int("workers", 0, "evaluation workers (0 = auto: GOMAXPROCS)")
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

	anchor := make([]float64, g.Dim())
	for t := range anchor {
		anchor[t] = 0.5
	}
	if *anchorStr != "" {
		parts := strings.Split(*anchorStr, ",")
		if len(parts) != g.Dim() {
			return fmt.Errorf("anchor has %d coordinates, grid has %d dimensions", len(parts), g.Dim())
		}
		for t, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("anchor: %w", err)
			}
			anchor[t] = v
		}
	}

	w, h := *width, *height
	if *ascii {
		w, h = 72, 28
	}
	vals, err := g.Slice2D(compactsg.SliceSpec{
		AxisX: *axisX, AxisY: *axisY, NX: w, NY: h, Anchor: anchor,
	})
	if err != nil {
		return err
	}
	raster, err := viz.NewRaster(w, h, vals)
	if err != nil {
		return err
	}

	if *ascii {
		fmt.Fprint(stdout, viz.ASCII(raster))
		return nil
	}

	var cm viz.Colormap
	switch *cmName {
	case "inferno":
		cm = viz.Inferno
	case "gray":
		cm = viz.Grayscale
	case "diverging":
		cm = viz.Diverging
	default:
		return fmt.Errorf("unknown colormap %q", *cmName)
	}
	img := viz.Render(raster, cm)
	if *isoStr != "" {
		for _, p := range strings.Split(*isoStr, ",") {
			level, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("iso: %w", err)
			}
			viz.DrawSegments(img, viz.Isolines(raster, level), color.RGBA{0, 255, 128, 255})
		}
	}
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := viz.WritePNG(of, img); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %dx%d slice (dims %d/%d) to %s\n", w, h, *axisX, *axisY, *out)
	return of.Sync()
}
