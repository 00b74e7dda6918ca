package quad_test

import (
	"math"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
)

// buildAnalogue builds a KDV over a seeded dataset analogue.
func buildAnalogue(t *testing.T, name string, n int, opts ...quad.Option) *quad.KDV {
	t.Helper()
	pts, err := dataset.Generate(name, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	k, err := quad.New(pts.Coords, pts.Dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameBits reports whether two rasters are bit-identical, returning the
// first differing pixel for diagnostics.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestRenderDeterministic pins the seed-pinned determinism contract on two
// dataset analogues: the same configuration renders byte-identical rasters
// on repeat runs, and the worker count never changes a single bit (tiles
// are evaluated independently, so scheduling cannot leak into values).
func TestRenderDeterministic(t *testing.T) {
	res := quad.Resolution{W: 48, H: 36}
	const eps = 0.05
	for _, name := range []string{"crime", "elnino"} {
		t.Run(name, func(t *testing.T) {
			k := buildAnalogue(t, name, 2000)
			a, err := k.RenderEps(res, eps)
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.RenderEps(res, eps)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(a.Values, b.Values); !ok {
				t.Fatalf("repeat render differs at pixel %d: %x vs %x",
					i, math.Float64bits(a.Values[i]), math.Float64bits(b.Values[i]))
			}

			kw := buildAnalogue(t, name, 2000, quad.WithWorkers(4))
			c, err := kw.RenderEps(res, eps)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(a.Values, c.Values); !ok {
				t.Fatalf("4-worker render differs at pixel %d from 1-worker render", i)
			}

			_, sigma := a.MuSigma()
			mu, _ := a.MuSigma()
			tau := mu + 0.5*sigma
			h1, err := k.RenderTau(res, tau)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := kw.RenderTau(res, tau)
			if err != nil {
				t.Fatal(err)
			}
			for i := range h1.Hot {
				if h1.Hot[i] != h2.Hot[i] {
					t.Fatalf("τ mask differs at pixel %d across worker counts", i)
				}
			}
		})
	}
}

// TestTileSizeDeterminismContract documents the intentional nondeterminism
// across *different* tile sizes: εKDV pixel values may differ between
// WithTileSize(1) and the default, because warm-started refinement stops at
// a different certified interval than per-pixel root refinement. Each
// raster must still satisfy |R − F| ≤ ε·F pixel-by-pixel against the exact
// density, and τKDV hot masks must be bit-identical for every tile size.
func TestTileSizeDeterminismContract(t *testing.T) {
	res := quad.Resolution{W: 48, H: 36}
	const eps = 0.05
	k1 := buildAnalogue(t, "crime", 2000, quad.WithTileSize(1))
	kd := buildAnalogue(t, "crime", 2000)

	a, err := k1.RenderEps(res, eps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kd.RenderEps(res, eps)
	if err != nil {
		t.Fatal(err)
	}

	diff := 0
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			diff++
		}
	}
	// On this dataset the tile-shared path demonstrably returns different
	// (equally valid) values for some pixels; if this ever becomes zero the
	// WithTileSize documentation should be revisited.
	if diff == 0 {
		t.Error("tile size 1 and default produced identical εKDV rasters; expected documented divergence")
	}
	t.Logf("εKDV: %d/%d pixels differ between tile size 1 and default", diff, len(a.Values))

	// Both rasters honor the guarantee against the exact density at each
	// pixel center (reconstructed from the map's window exactly as the
	// render grid computes it).
	stepX := (a.WindowMax[0] - a.WindowMin[0]) / float64(res.W)
	stepY := (a.WindowMax[1] - a.WindowMin[1]) / float64(res.H)
	q := make([]float64, 2)
	for y := 0; y < res.H; y++ {
		for x := 0; x < res.W; x++ {
			q[0] = a.WindowMin[0] + (float64(x)+0.5)*stepX
			q[1] = a.WindowMin[1] + (float64(y)+0.5)*stepY
			f, err := k1.Density(q)
			if err != nil {
				t.Fatal(err)
			}
			slack := eps*f + 1e-12*f
			for _, m := range []*quad.DensityMap{a, b} {
				if v := m.At(x, y); math.Abs(v-f) > slack {
					t.Fatalf("pixel (%d,%d): value %g violates ε=%g guarantee around F=%g", x, y, v, eps, f)
				}
			}
		}
	}

	mu, sigma := a.MuSigma()
	tau := mu + 0.5*sigma
	h1, err := k1.RenderTau(res, tau)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := kd.RenderTau(res, tau)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Hot {
		if h1.Hot[i] != hd.Hot[i] {
			t.Fatalf("τ mask differs at pixel %d between tile size 1 and default", i)
		}
	}
}

// TestFlatRenderWorkersDeterminism pins the engine's scheduling
// independence: the same scene rendered with 1, 3, and 8 workers is
// bit-identical, both εKDV values and τKDV masks.
func TestFlatRenderWorkersDeterminism(t *testing.T) {
	pts := dataset.Crime(6000, 7)
	res := quad.Resolution{W: 64, H: 48}
	const eps = 0.05
	build := func(workers int) *quad.KDV {
		k, err := quad.New(pts.Coords, 2, quad.WithTileSize(16), quad.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base, err := build(1).RenderEps(res, eps)
	if err != nil {
		t.Fatal(err)
	}
	baseHot, err := build(1).RenderTau(res, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 8} {
		dm, err := build(w).RenderEps(res, eps)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(base.Values, dm.Values); !ok {
			t.Fatalf("workers=%d differs from workers=1 at pixel %d", w, i)
		}
		hm, err := build(w).RenderTau(res, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		for i := range baseHot.Hot {
			if baseHot.Hot[i] != hm.Hot[i] {
				t.Fatalf("workers=%d mask differs from workers=1 at pixel %d", w, i)
			}
		}
	}
}

// TestThresholdStatsWorkersDeterminism: ThresholdStats spreads its sample
// rows over the KDV's workers, and μ and σ must be bit-identical for 1, 2
// and 4 workers — for the bound engine and for a scan-based method.
func TestThresholdStatsWorkersDeterminism(t *testing.T) {
	pts := dataset.Crime(6000, 7)
	res := quad.Resolution{W: 70, H: 53}
	for _, m := range []quad.Method{quad.MethodQuadratic, quad.MethodExact} {
		var mu0, sigma0 float64
		for _, w := range []int{1, 2, 4} {
			k, err := quad.New(pts.Coords, 2, quad.WithMethod(m), quad.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			mu, sigma, err := k.ThresholdStats(res, 3, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				mu0, sigma0 = mu, sigma
				continue
			}
			if math.Float64bits(mu) != math.Float64bits(mu0) || math.Float64bits(sigma) != math.Float64bits(sigma0) {
				t.Errorf("%s workers=%d: μ=%x σ=%x, workers=1: μ=%x σ=%x", m, w,
					math.Float64bits(mu), math.Float64bits(sigma), math.Float64bits(mu0), math.Float64bits(sigma0))
			}
		}
	}
}
