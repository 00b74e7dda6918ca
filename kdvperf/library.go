package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"image"
	"math"
	"math/rand"
	"strconv"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
	"github.com/quadkdv/quad/internal/render"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// library redoes served requests through the library's public functions:
// the correctness gate compares its output with the server's, and the
// traced run times each layer's call.
type library struct {
	s      spec
	coords []float64
	k      *quad.KDV
	extent quad.Window
	exact  *oracle.Oracle
}

// newLibrary builds the KDV exactly as the server's cache does. With a
// trace, dataset generation and the index build are recorded as spans.
func newLibrary(s spec, tr *trace.Trace) (*library, error) {
	sp := tr.Start("dataset.generate", nil)
	coords, err := points(s)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("kdtree.build", nil)
	k, err := quad.New(coords, 2, quad.WithKernel(quad.Gaussian), quad.WithMethod(quad.MethodQuadratic),
		quad.WithZOrderGuarantee(0.01, 0.2))
	sp.End()
	if err != nil {
		return nil, err
	}
	extent, err := k.DefaultWindow()
	if err != nil {
		return nil, err
	}
	exact, err := oracle.New(geom.NewPoints(coords, 2), nil, kernel.Gaussian, k.Gamma(), k.Weight())
	if err != nil {
		return nil, err
	}
	return &library{s: s, coords: coords, k: k, extent: extent, exact: exact}, nil
}

// redone is one request redone through the library.
type redone struct {
	sum   [sha256.Size]byte
	stats quad.RenderStats
	tau   float64
	kb    float64 // PNG size
	dm    *quad.DensityMap
	hm    *quad.HotspotMap
}

// redo renders r as the server's /render or /hotspots handler does: resolve
// τ, render, colour, encode. Each layer call is a span under parent when tr
// is non-nil; the render span carries the RenderStats counters and gets two
// children laid end to end, the shared frontier (its CPU time) and per-pixel
// refinement (the rest).
func (l *library) redo(ctx context.Context, tr *trace.Trace, parent *trace.Span, r request) (redone, error) {
	var out redone
	res := l.s.res
	var err error
	var img image.Image
	if l.s.endpoint == "render" {
		t0 := time.Now()
		out.dm, out.stats, err = l.k.RenderEpsStatsInCtx(ctx, res, l.s.eps, r.window)
		renderSpan(tr, parent, t0, out.stats)
		if err != nil {
			return out, err
		}
		sp := tr.Start("render.colour", parent)
		img = render.Heatmap(&grid.Values{Res: grid.Resolution{W: res.W, H: res.H}, Data: out.dm.Values}, render.Log)
		sp.End()
	} else {
		sp := tr.Start("quad.threshold", parent)
		mu, sigma, err := l.k.ThresholdStatsCtx(ctx, res, 1+res.W*res.H/4096, l.s.eps)
		sp.End()
		if err != nil {
			return out, err
		}
		out.tau = mu + r.k*sigma
		t0 := time.Now()
		out.hm, out.stats, err = l.k.RenderTauStatsInCtx(ctx, res, out.tau, r.window)
		renderSpan(tr, parent, t0, out.stats)
		if err != nil {
			return out, err
		}
		sp = tr.Start("render.colour", parent)
		img, err = render.Binary(grid.Resolution{W: res.W, H: res.H}, out.hm.Hot)
		sp.End()
		if err != nil {
			return out, err
		}
	}
	return out, encode(tr, parent, img, &out)
}

func renderSpan(tr *trace.Trace, parent *trace.Span, t0 time.Time, st quad.RenderStats) {
	t1 := t0.Add(st.Elapsed)
	sp := tr.Add("quad.render", parent, t0, t1, statsAttrs(st)...)
	mid := t0.Add(st.SharedElapsed)
	tr.Add("quad.frontier", sp, t0, mid)
	tr.Add("engine.refine", sp, mid, t1)
}

// statsAttrs are a render's RenderStats as span attributes.
func statsAttrs(st quad.RenderStats) []trace.Attr {
	return []trace.Attr{
		trace.Int("pixels", st.Pixels),
		trace.Int("tiles", st.Tiles),
		trace.Int("tiles_decided", st.TilesDecided),
		trace.Int("shared_node_evals", st.SharedNodeEvals),
		trace.Int("frontier_promotions", st.FrontierPromotions),
		trace.Int("pops", st.Iterations),
		trace.Int("node_evals", st.NodesEvaluated),
		trace.Int("leaf_scans", st.LeafScans),
		trace.Int("points_scanned", st.PointsScanned),
		trace.DurMs("render_ms", st.Elapsed),
		trace.DurMs("shared_ms", st.SharedElapsed),
	}
}

func encode(tr *trace.Trace, parent *trace.Span, img image.Image, out *redone) error {
	sp := tr.Start("render.encode", parent)
	var buf bytes.Buffer
	err := render.EncodePNG(&buf, img)
	sp.End()
	out.sum = sha256.Sum256(buf.Bytes())
	out.kb = float64(buf.Len()) / 1024
	sp.SetAttrs(trace.Float64("png_kb", out.kb))
	return err
}

// statsHeaders are the exact work counters /render and /hotspots return as
// X-KDV-Stats-* headers, keyed by header name.
func statsHeaders(st quad.RenderStats) map[string]int {
	return map[string]int{
		"X-Kdv-Stats-Pops":          st.Iterations,
		"X-Kdv-Stats-Node-Evals":    st.NodesEvaluated,
		"X-Kdv-Stats-Leaf-Scans":    st.LeafScans,
		"X-Kdv-Stats-Points":        st.PointsScanned,
		"X-Kdv-Stats-Shared-Evals":  st.SharedNodeEvals,
		"X-Kdv-Stats-Tiles-Decided": st.TilesDecided,
		"X-Kdv-Stats-Promotions":    st.FrontierPromotions,
	}
}

// checkServed compares a served response with the library's redo of the
// same request: identical PNG bytes, identical exact counters and, for
// τKDV, the identical threshold.
func checkServed(resp *response, out redone) error {
	if resp.sum != out.sum {
		return fmt.Errorf("served PNG differs from the library's")
	}
	for h, want := range statsHeaders(out.stats) {
		if got := resp.header.Get(h); got != strconv.Itoa(want) {
			return fmt.Errorf("%s = %s, library counted %d", h, got, want)
		}
	}
	if out.hm != nil {
		got, err := strconv.ParseFloat(resp.header.Get("X-Kdv-Tau"), 64)
		if err != nil || got != out.tau {
			return fmt.Errorf("X-KDV-Tau = %q, library resolved %v", resp.header.Get("X-Kdv-Tau"), out.tau)
		}
	}
	return nil
}

// checkOracle recomputes pixels of a redone raster with the exact oracle:
// relative error at most ε for εKDV, exact classification against τ for
// τKDV. g maps the raster's pixels to query points.
func (l *library) checkOracle(rng *rand.Rand, g *grid.Grid, out redone, eps float64) error {
	q := make([]float64, 2)
	var n int
	if out.dm != nil {
		n = len(out.dm.Values)
	} else {
		n = len(out.hm.Hot)
	}
	for j := 0; j < l.s.pixels; j++ {
		i := rng.Intn(n)
		g.Query(i%g.Res.W, i/g.Res.W, q)
		f := l.exact.Density(q)
		if out.dm != nil {
			v := out.dm.Values[i]
			// The absolute term only absorbs rounding where F is ~0.
			if math.Abs(v-f) > eps*f+1e-12*math.Max(f, v) || math.IsNaN(v) {
				return fmt.Errorf("pixel %d: served %g, exact %g, beyond ε=%g", i, v, f, eps)
			}
			continue
		}
		if math.Abs(f-out.tau) <= 1e-9*math.Abs(out.tau) {
			continue // on the threshold within the oracle's own rounding
		}
		if out.hm.Hot[i] != (f >= out.tau) {
			return fmt.Errorf("pixel %d: hot=%v but exact %g vs τ=%g", i, out.hm.Hot[i], f, out.tau)
		}
	}
	return nil
}

// newPyramid builds a pyramid over the library KDV with the serve layer's
// tile options. A nil store keeps it memory-only.
func (l *library) newPyramid(ctx context.Context, store *tiles.Store, lru *tiles.LRU) (*tiles.Pyramid, error) {
	return tiles.NewPyramid(ctx, tiles.PyramidConfig{
		Tileset:  "kdvperf",
		KDV:      l.k,
		Eps:      l.s.eps,
		TileSize: l.s.tileSize,
		LogScale: true,
		Store:    store,
		LRU:      lru,
	})
}

// tileGrid is the sub-grid of tile c's pixels within its zoom's full raster.
func (l *library) tileGrid(c tiles.Coord, pyr *tiles.Pyramid) (*grid.Grid, quad.Resolution, quad.PixelRect, error) {
	full, sub := c.PixelRect(l.s.tileSize)
	w := pyr.Window()
	g, err := grid.New(grid.Resolution{W: full.W, H: full.H},
		geom.Rect{Min: []float64{w.MinX, w.MinY}, Max: []float64{w.MaxX, w.MaxY}})
	if err != nil {
		return nil, full, sub, err
	}
	sg, err := g.Sub(sub.X0, sub.Y0, sub.W(), sub.H())
	return sg, full, sub, err
}
