package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/render"
)

// TestServedRendersMatchOneWorkerLibrary: the server builds its KDVs with
// GOMAXPROCS render workers. Under GOMAXPROCS(4) the served /render and
// /hotspots bodies, X-KDV-Tau and X-KDV-Stats-* work counters must equal a
// one-worker library render of the same request, and the render spans must
// show that four workers ran.
func TestServedRendersMatchOneWorkerLibrary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ts, tl := tracedServer(t, Config{})

	pts, err := dataset.Generate("crime", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts = dataset.First2D(pts)
	const eps = 0.02
	lib, err := quad.New(pts.Coords, pts.Dim, quad.WithKernel(quad.Gaussian),
		quad.WithMethod(quad.MethodQuadratic), quad.WithZOrderGuarantee(eps, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	res := quad.Resolution{W: 96, H: 80}
	ctx := context.Background()

	// /render: εKDV heat map on the log scale.
	body, hdr := fetch(t, ts.URL+"/render?dataset=crime&res=96x80&eps=0.02")
	dm, st, err := lib.RenderEpsStatsInCtx(ctx, res, eps, quad.Window{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	v := &grid.Values{Res: grid.Resolution{W: res.W, H: res.H}, Data: dm.Values}
	if err := render.EncodePNG(&want, render.Heatmap(v, render.Log)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("/render body differs from the one-worker library render")
	}
	checkStatsHeaders(t, "/render", hdr, st)

	// /hotspots: τ = μ + σ, then the τKDV mask.
	body, hdr = fetch(t, ts.URL+"/hotspots?dataset=crime&res=96x80&eps=0.02&tau=mu%2B1")
	mu, sigma, err := lib.ThresholdStats(res, 1+res.W*res.H/4096, eps)
	if err != nil {
		t.Fatal(err)
	}
	tau := mu + sigma
	if got, want := hdr.Get("X-KDV-Tau"), strconv.FormatFloat(tau, 'g', -1, 64); got != want {
		t.Errorf("X-KDV-Tau = %s, one-worker library resolved %s", got, want)
	}
	hm, st, err := lib.RenderTauStatsInCtx(ctx, res, tau, quad.Window{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := render.Binary(grid.Resolution{W: res.W, H: res.H}, hm.Hot)
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	if err := render.EncodePNG(&want, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("/hotspots body differs from the one-worker library render")
	}
	checkStatsHeaders(t, "/hotspots", hdr, st)

	for _, name := range []string{"render.eps", "render.tau"} {
		found := false
		for _, sp := range traceLogSpans(t, tl.String()) {
			if sp["name"] != name {
				continue
			}
			found = true
			attrs, _ := sp["attrs"].(map[string]any)
			if w := attrs["workers"]; w != 4.0 {
				t.Errorf("%s span ran on %v workers, want 4", name, w)
			}
		}
		if !found {
			t.Errorf("no %s span exported", name)
		}
	}
}

func fetch(t *testing.T, url string) ([]byte, http.Header) {
	t.Helper()
	resp := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header
}

// checkStatsHeaders compares the served X-KDV-Stats-* work counters with a
// library render's RenderStats.
func checkStatsHeaders(t *testing.T, path string, h http.Header, st quad.RenderStats) {
	t.Helper()
	for name, want := range map[string]int{
		"X-KDV-Stats-Pops":          st.Iterations,
		"X-KDV-Stats-Node-Evals":    st.NodesEvaluated,
		"X-KDV-Stats-Leaf-Scans":    st.LeafScans,
		"X-KDV-Stats-Points":        st.PointsScanned,
		"X-KDV-Stats-Shared-Evals":  st.SharedNodeEvals,
		"X-KDV-Stats-Tiles-Decided": st.TilesDecided,
		"X-KDV-Stats-Promotions":    st.FrontierPromotions,
	} {
		if got := h.Get(name); got != strconv.Itoa(want) {
			t.Errorf("%s %s = %s, one-worker library counted %d", path, name, got, want)
		}
	}
}
