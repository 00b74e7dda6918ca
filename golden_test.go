package quad_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/classify"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/harness"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kdtree/flat"
	"github.com/quadkdv/quad/internal/kernel"
	"github.com/quadkdv/quad/internal/oracle"
	"github.com/quadkdv/quad/internal/regress"
	"github.com/quadkdv/quad/internal/stats"
)

// -update regenerates testdata/engine_digests.golden:
// go test . -run TestEngineGoldenDigests -update
var updateDigests = flag.Bool("update", false, "rewrite the engine digest golden file")

const digestsPath = "testdata/engine_digests.golden"

// The engine digest contract: every output the bound engine produces — εKDV
// rasters and τKDV masks over the conformance matrix, classifier decisions,
// regressor predictions and Fig 18 bound traces — is pinned bit for bit as
// a sha256 digest of its Float64bits. The digests were recorded from the
// pointer-tree engine the flat engine replaced, and the flat engine
// reproduced all of them before that engine was deleted; any change to
// traversal order, bound arithmetic or leaf summation shows up here as a
// named cell.
// A deliberate change of output bits regenerates the file with -update and
// says so in CHANGES.md.

// digester accumulates float64 bit patterns and integers into sha256.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f64(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digester) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digester) bools(vs []bool) {
	b := make([]byte, len(vs))
	for i, v := range vs {
		if v {
			b[i] = 1
		}
	}
	d.h.Write(b)
}

func (d *digester) str(s string) { d.h.Write([]byte(s + "\x00")) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestSet is an ordered list of "name digest" lines.
type digestSet struct{ lines []string }

func (s *digestSet) add(name string, d *digester) {
	s.lines = append(s.lines, name+" "+d.sum())
}

// boundMethods lists the bound-based methods applicable to a kernel.
func boundMethods(k quad.Kernel) []quad.Method {
	ms := []quad.Method{quad.MethodQuadratic, quad.MethodMinMax}
	if k == quad.Gaussian {
		ms = append(ms, quad.MethodLinear)
	}
	return ms
}

// renderCell digests one configuration's εKDV raster and τKDV mask.
func renderCell(t *testing.T, set *digestSet, name string, coords []float64, opts []quad.Option, res quad.Resolution, eps, tau float64) {
	t.Helper()
	k, err := quad.New(coords, 2, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	dm, err := k.RenderEps(res, eps)
	if err != nil {
		t.Fatalf("%s: RenderEps: %v", name, err)
	}
	d := newDigester()
	d.f64(dm.Values...)
	set.add("eps/"+name, d)
	hm, err := k.RenderTau(res, tau)
	if err != nil {
		t.Fatalf("%s: RenderTau: %v", name, err)
	}
	d = newDigester()
	d.bools(hm.Hot)
	set.add("tau/"+name, d)
}

// renderDigests covers two scenes. The conformance matrix runs on the
// `make verify` data (crime n=1200, seed 7, 32×24): every kernel × bound
// method × tile size {1,4,16}, unsharded and as each shard of a 2- and
// 4-way partition, with τ at μ+0.5σ of the Kahan-oracle raster (τ/count
// for a shard). The second scene is a denser crime set (n=8000, 64×48)
// with a fixed τ, where refinement runs deeper.
func renderDigests(t *testing.T) []string {
	var set digestSet
	const eps = 0.05
	pts := dataset.Crime(1200, 7)
	res := quad.Resolution{W: 32, H: 24}
	g, err := grid.ForDataset(grid.Resolution{W: res.W, H: res.H}, pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, ik := range kernel.All() {
		kern := quad.Kernel(ik)
		ref, err := quad.New(pts.Coords, 2, quad.WithKernel(kern))
		if err != nil {
			t.Fatal(err)
		}
		gamma, weight := ref.Gamma(), ref.Weight()
		o, err := oracle.New(pts, nil, ik, gamma, weight)
		if err != nil {
			t.Fatal(err)
		}
		mu, sigma := oracle.MuSigma(o.Raster(g))
		tau := mu + 0.5*sigma
		for _, m := range boundMethods(kern) {
			for _, ts := range []int{1, 4, 16} {
				base := []quad.Option{
					quad.WithKernel(kern), quad.WithMethod(m),
					quad.WithBandwidth(gamma, weight), quad.WithTileSize(ts),
				}
				cell := fmt.Sprintf("crime1200/%s/%s/ts=%d", kern, m, ts)
				renderCell(t, &set, cell, pts.Coords, base, res, eps, tau)
				for _, count := range []int{2, 4} {
					for i := 0; i < count; i++ {
						opts := append(append([]quad.Option(nil), base...), quad.WithShard(i, count))
						renderCell(t, &set, fmt.Sprintf("%s/shard=%d-of-%d", cell, i, count),
							pts.Coords, opts, res, eps, tau/float64(count))
					}
				}
			}
		}
	}

	dense := dataset.Crime(8000, 7)
	for _, kern := range []quad.Kernel{quad.Gaussian, quad.Epanechnikov} {
		for _, m := range boundMethods(kern) {
			for _, ts := range []int{1, 4, 16} {
				opts := []quad.Option{
					quad.WithKernel(kern), quad.WithMethod(m), quad.WithTileSize(ts),
				}
				renderCell(t, &set, fmt.Sprintf("crime8000/%s/%s/ts=%d", kern, m, ts),
					dense.Coords, opts, quad.Resolution{W: 64, H: 48}, eps, 0.001)
			}
		}
	}
	return set.lines
}

// goldenQueries samples n seeded query points over pts' bounding box,
// widened so some land in the sparse tail.
func goldenQueries(pts geom.Points, n int, seed int64) [][]float64 {
	r := geom.BoundingRect(pts)
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		q := make([]float64, pts.Dim)
		for j := range q {
			span := r.Max[j] - r.Min[j]
			q[j] = r.Min[j] - 0.1*span + 1.2*span*rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

// classifyDigests pins kernel density classification: three crime-analogue
// classes (two shifted copies overlap the first) raced under each bound
// method; every decision's label, margin and work counters.
func classifyDigests(t *testing.T) []string {
	var set digestSet
	base := dataset.Crime(1500, 11)
	shift := func(src geom.Points, dx, dy float64) geom.Points {
		out := src.Clone()
		for i := 0; i < out.Len(); i++ {
			out.Coords[2*i] += dx
			out.Coords[2*i+1] += dy
		}
		return out
	}
	// Tree builds reorder their points in place, so each classifier gets
	// fresh class buffers.
	classes := func() map[string]geom.Points {
		return map[string]geom.Points{
			"a": dataset.Crime(900, 3),
			"b": shift(dataset.Crime(700, 4), 2, 1),
			"c": shift(dataset.Crime(500, 5), -1, 3),
		}
	}
	gamma := stats.ScottsRule(base, kernel.Gaussian).Gamma
	qs := goldenQueries(base, 200, 21)
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Epanechnikov} {
		for _, m := range []bounds.Method{bounds.Quadratic, bounds.MinMax, bounds.Linear} {
			if m == bounds.Linear && !kern.HasLinearBounds() {
				continue
			}
			c, err := classify.New(classes(), classify.Config{Kernel: kern, Gamma: gamma, Method: m})
			if err != nil {
				t.Fatal(err)
			}
			d := newDigester()
			for _, q := range qs {
				r, err := c.Classify(q)
				if err != nil {
					t.Fatal(err)
				}
				d.str(r.Label)
				d.f64(r.Margin)
				d.ints(r.Stats.Iterations, r.Stats.NodesEvaluated, r.Stats.LeafScans, r.Stats.PointsScanned)
			}
			set.add(fmt.Sprintf("classify/%s/%s", kern, m), d)
		}
	}
	return set.lines
}

// regressDigests pins Nadaraya–Watson predictions (value bits and ok) on a
// signed response surface at two tolerances.
func regressDigests(t *testing.T) []string {
	var set digestSet
	x := dataset.Crime(2000, 13)
	rng := rand.New(rand.NewSource(14))
	y := make([]float64, x.Len())
	for i := range y {
		p := x.At(i)
		y[i] = math.Sin(p[0]/7) + 0.3*p[1]/10 - 0.5 + 0.1*rng.NormFloat64()
	}
	gamma := stats.ScottsRule(x, kernel.Gaussian).Gamma
	qs := goldenQueries(x, 150, 15)
	for _, kern := range []kernel.Kernel{kernel.Gaussian, kernel.Triangular} {
		for _, m := range []bounds.Method{bounds.Quadratic, bounds.MinMax} {
			r, err := regress.New(x, y, regress.Config{Kernel: kern, Gamma: gamma, Method: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, tol := range []float64{1e-2, 1e-5} {
				d := newDigester()
				for _, q := range qs {
					v, ok, err := r.Predict(q, tol)
					if err != nil {
						t.Fatal(err)
					}
					d.f64(v)
					if ok {
						d.ints(1)
					} else {
						d.ints(0)
					}
				}
				set.add(fmt.Sprintf("regress/%s/%s/tol=%g", kern, m, tol), d)
			}
		}
	}
	return set.lines
}

// traceDigests pins the Fig 18 bound traces: the (iteration, lb, ub)
// sequence of an ε=0.01 refinement on the home analogue's densest pixel
// and on seeded queries, for each Gaussian bound method.
func traceDigests(t *testing.T) []string {
	var set digestSet
	pts := dataset.Home(5000, 7)
	k, err := quad.New(pts.Coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	densest, err := harness.DensestPixel(k, pts, grid.Resolution{W: 64, H: 48})
	if err != nil {
		t.Fatal(err)
	}
	qs := append([][]float64{densest}, goldenQueries(pts, 8, 17)...)
	bw := stats.ScottsRule(pts, kernel.Gaussian)
	tree, err := flat.Build(pts.Clone(), kdtree.Options{Gram: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []bounds.Method{bounds.Linear, bounds.Quadratic, bounds.MinMax} {
		ev, err := bounds.NewEvaluator(kernel.Gaussian, bw.Gamma, bw.Weight, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.NewFlat(tree, ev)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigester()
		for _, q := range qs {
			tr := e.BoundTrace(q, 0.01)
			d.ints(len(tr))
			for _, tp := range tr {
				d.ints(tp.Iteration)
				d.f64(tp.LB, tp.UB)
			}
		}
		set.add(fmt.Sprintf("boundtrace/home5000/%s", m), d)
	}
	return set.lines
}

// TestEngineGoldenDigests checks every engine output against the recorded
// digests (see the contract above).
func TestEngineGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full conformance matrix")
	}
	got := renderDigests(t)
	got = append(got, classifyDigests(t)...)
	got = append(got, regressDigests(t)...)
	got = append(got, traceDigests(t)...)

	if *updateDigests {
		if err := os.WriteFile(digestsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", digestsPath, err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 20 {
				t.Errorf("digest mismatch: got %q, want %q", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d digests differ from %s", bad, len(got), digestsPath)
	}
}
