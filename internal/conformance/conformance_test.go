package conformance

import (
	"math"
	"strings"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/kernel"
)

// TestRunFullSuite is the differential conformance suite of ISSUE 3: every
// method × kernel × tile size, εKDV and τKDV, judged against the Kahan
// oracle, plus bound dominance and metamorphic passes.
func TestRunFullSuite(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	rep, err := Run(Config{Name: "crime", Pts: dataset.Crime(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failures() {
		t.Errorf("FAIL %s: %s", c.Name, c.Detail)
	}
	if !rep.Pass {
		t.Fatalf("%d/%d checks failed", rep.Failed, len(rep.Checks))
	}

	// The matrix must actually have been covered: spot-check cells from
	// every axis of the cross product.
	for _, want := range []string{
		"eps/gaussian/quad/ts=1",
		"eps/gaussian/quad/ts=16",
		"eps/gaussian/karl/ts=4",
		"eps/uniform/minmax/ts=16",
		"eps/epanechnikov/exact/ts=1",
		"eps/triangular/zorder/ts=1",
		"tau/cosine/quad/ts=4",
		"tau-tile-identity/gaussian/quad/ts=1-vs-16",
		"eps-tile-drift/exponential/quad/ts=1-vs-4",
		"eps-tile-identity/quartic/exact/ts=1-vs-16",
		"determinism/eps-workers",
		"bounds/sandwich/gaussian/quad",
		"bounds/hierarchy/gaussian/quad-in-karl",
		"bounds/rect/uniform/minmax",
		"bounds/envelope/gaussian",
		"metamorphic/weight-linearity/eps",
		"metamorphic/scale/eps",
		"metamorphic/duplication/render-agreement",
		"metamorphic/sampling-monotonicity",
		"shard-merge/gaussian/exact/shards=2",
		"shard-merge/gaussian/quad/shards=4",
		"shard-window/gaussian/quad/shards=2/i=1",
		"shard-determinism/gaussian/quad/i=0-of-2",
	} {
		if !hasCheck(rep, want) {
			t.Errorf("suite did not run check %q", want)
		}
	}

	// No linear (KARL) cells outside the Gaussian kernel.
	for _, c := range rep.Checks {
		if strings.Contains(c.Name, "/karl/") && !strings.Contains(c.Name, "gaussian") {
			t.Errorf("KARL ran on a non-Gaussian kernel: %s", c.Name)
		}
	}
}

// TestRunLeavesPointsUnchanged: Run must not reorder the caller's point
// buffer. The bound-dominance pass builds its own kd-tree, and a tree build
// permutes the points it is given in place.
func TestRunLeavesPointsUnchanged(t *testing.T) {
	pts := dataset.Crime(300, 7)
	want := append([]float64(nil), pts.Coords...)
	rep, err := Run(Config{
		Name:            "crime",
		Pts:             pts,
		Kernels:         []kernel.Kernel{kernel.Gaussian},
		Methods:         []quad.Method{quad.MethodQuadratic},
		TileSizes:       []int{4},
		SkipTiles:       true,
		SkipMetamorphic: true,
		SkipSharding:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCheck(rep, "bounds/sandwich/gaussian/quad") {
		t.Fatal("bound-dominance pass did not run")
	}
	for i, v := range want {
		if math.Float64bits(pts.Coords[i]) != math.Float64bits(v) {
			t.Fatalf("Config.Pts.Coords[%d] = %v after Run, want %v", i, pts.Coords[i], v)
		}
	}
}

func hasCheck(rep *Report, name string) bool {
	for _, c := range rep.Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	pts := dataset.Hep(50, 5, 1)
	if _, err := Run(Config{Pts: pts}); err == nil {
		t.Error("non-2-d dataset accepted")
	}
}
