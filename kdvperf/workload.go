package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/tiles"
)

// heldOutSeed is reserved for validating later performance claims: it was
// never used while the benchmark or a change was being tuned, so a claim
// that holds on the tuning seeds must also hold on this one.
const heldOutSeed = 20261017

// datasetSeed fixes the served dataset. It is the server's default ?seed=,
// so the KDV that Warmup builds is the one every request hits. The workload
// seed varies only the request stream.
const datasetSeed = 1

// spec sizes one workload. Full-scale values are chosen so a run fits the
// benchmark's time budget on a 2-core host; tiny-scale values let the tests
// drive every code path in about a second.
type spec struct {
	name     string
	endpoint string // "render", "hotspots" or "tiles"
	n        int    // dataset cardinality (crime analogue)
	res      quad.Resolution
	eps      float64 // ε of /render and of the tile pyramid
	mix      []view  // closed loops: one round of requests
	clients  int     // client connections
	rate     float64 // Poisson arrivals per second; 0 selects the closed loop
	zipfS    float64 // open loop: Zipf exponent of tile popularity
	maxZoom  int     // open loop: deepest requested zoom
	tileSize int
	warm     []int // zoom levels warmed at set-up (Config.WarmZooms)
	tileMem  int64 // Config.TileMemoryBytes: below the tiles' working set
	replay   int   // closed loops: requests replayed by the traced run
	gate     int   // served requests re-rendered by the correctness gate
	setups   int   // set-ups per run; setup_s is their median
	pixels   int   // oracle-checked pixels per gated request
}

func specFor(workload string, tiny bool) (spec, error) {
	var s spec
	switch workload {
	case "viewport":
		// One analyst panning εKDV maps on the paper's smallest screen. Each
		// round of seven frames has two overviews (1×, the whole extent),
		// three neighbourhood views (2×) and two close-ups (4×, 8×). The
		// overview is the costliest frame and the same for every seed, so
		// p90 falls inside it; p50 falls mid-way through the 2×
		// frames, whose cost varies least with the seed.
		s = spec{name: workload, endpoint: "render", n: 30000,
			res: quad.Resolution{W: 320, H: 240}, eps: 0.05,
			mix: views([]float64{1, 1, 2, 2, 2, 4, 8}, 0), clients: 1, replay: 7, gate: 3}
		if tiny {
			s.n, s.res, s.replay, s.gate = 2000, quad.Resolution{W: 64, H: 48}, 3, 2
		}
	case "hotspots":
		// One τKDV dashboard. Each round of eleven requests has the
		// overview (1×, the whole extent, the same for every seed) at
		// τ = μ + 0·σ twice and at μ + 1·σ three times, then one
		// neighbourhood view (2×) and one close-up (4×) for each k of
		// {0, 1, 2}. The k = 0 overview is the costliest request, so p90
		// falls inside it; about as many zoomed views cost more than
		// the μ + σ overview as less, so p50 falls inside that. Seeded
		// windows thus move the mix but not the percentiles. A second
		// client would load both cores, and on a shared 2-core host that
		// made run medians of one build spread by 15–30%, against 6–14%
		// with one.
		s = spec{name: workload, endpoint: "hotspots", n: 100000,
			res: quad.Resolution{W: 256, H: 256}, eps: 0.01,
			mix: slices.Concat(views([]float64{1, 1}, 0), views([]float64{1, 1, 1}, 1),
				views([]float64{2, 4}, 0, 1, 2)),
			clients: 1, replay: 22, gate: 4}
		if tiny {
			s.n, s.res, s.replay, s.gate = 3000, quad.Resolution{W: 64, H: 64}, 4, 2
		}
	case "tiles":
		// Independent map viewers: open-loop Poisson arrivals with Zipf tile
		// popularity. Not in BENCHMARK.json: on two cores its percentiles
		// swing by more than the 25% bound from run to run — a cache hit
		// takes ~0.4 ms, so hit percentiles are scheduling jitter, and
		// build percentiles move with the seed's cold tiles and with
		// overlapping builds. It still runs end to end by hand, and its
		// tile sequence is the base map the hotspots traced run replays.
		// 64-px tiles at n=200 cost ~10 ms to build (256-px tiles at
		// ε=0.01 cost 0.2–0.6 s even at n=1000); with z0–z2 warmed,
		// Zipf(0.9) makes ~17% of requests first touches of a cold tile.
		s = spec{name: workload, endpoint: "tiles", n: 200, eps: 0.01,
			clients: 2, rate: 50, zipfS: 0.9, maxZoom: 4, tileSize: 64,
			warm: []int{0, 1, 2}, tileMem: 64 << 10, gate: 3}
		if tiny {
			s.rate, s.maxZoom, s.warm, s.tileMem, s.gate = 40, 3, []int{0, 1}, 16<<10, 2
		}
	default:
		return s, fmt.Errorf("unknown workload %q (viewport, hotspots or tiles)", workload)
	}
	s.setups, s.pixels = 15, 16
	if tiny {
		s.setups, s.pixels = 1, 4
	}
	return s, nil
}

// view is one request of a closed loop's round: a window zoomed by zoom
// around a seeded data point and, for hotspots, τ = μ + k·σ.
type view struct{ zoom, k float64 }

// views returns every (zoom, k) pair of zooms × ks.
func views(zooms []float64, ks ...float64) []view {
	var v []view
	for _, k := range ks {
		for _, z := range zooms {
			v = append(v, view{z, k})
		}
	}
	return v
}

// request is one generated request: the URL the server receives plus the
// parameters the replay and the correctness gate need to redo it through
// the library.
type request struct {
	path   string
	window quad.Window   // render, hotspots
	k      float64       // hotspots: τ = μ + k·σ
	tile   tiles.Coord   // tiles
	due    time.Duration // tiles: arrival offset from the run start
}

// points returns the served dataset exactly as the server builds it.
func points(s spec) ([]float64, error) {
	pts, err := dataset.Generate("crime", s.n, datasetSeed)
	if err != nil {
		return nil, err
	}
	return dataset.First2D(pts).Coords, nil
}

// closedLoopLen bounds the pre-generated request list of a closed loop; a
// run at full scale completes a few hundred requests at most.
const closedLoopLen = 4096

// generate returns the workload's request sequence for seed. extent is the
// dataset's default window, coords its points. The open loop schedules
// arrivals over dur; closed loops get closedLoopLen requests and consume a
// prefix of them.
func generate(s spec, seed int64, extent quad.Window, coords []float64, dur time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	if s.endpoint == "tiles" {
		return tileRequests(s, rng, extent, coords, dur)
	}
	// Requests come in rounds that send every view of s.mix once, in a
	// seeded order, so every seed sends the same mix of cheap and
	// expensive requests and only windows and order vary.
	round := len(s.mix)
	reqs := make([]request, closedLoopLen)
	perm := make([]int, round)
	for i := range reqs {
		if i%round == 0 {
			copy(perm, rng.Perm(round))
		}
		c := perm[i%round]
		zoom, k := s.mix[c].zoom, s.mix[c].k
		// Centre on a data point (analysts look where the data is), clamped
		// so the window stays inside the extent like a map UI's pan limits.
		p := rng.Intn(len(coords) / 2)
		w := window(extent, zoom, coords[2*p], coords[2*p+1])
		q := url.Values{}
		q.Set("dataset", "crime")
		q.Set("n", strconv.Itoa(s.n))
		q.Set("res", fmt.Sprintf("%dx%d", s.res.W, s.res.H))
		q.Set("bbox", fmt.Sprintf("%s,%s,%s,%s", ftoa(w.MinX), ftoa(w.MinY), ftoa(w.MaxX), ftoa(w.MaxY)))
		r := request{window: w}
		if s.endpoint == "render" {
			q.Set("eps", ftoa(s.eps))
		} else {
			r.k = k
			q.Set("tau", "mu+"+ftoa(k))
		}
		r.path = "/" + s.endpoint + "?" + q.Encode()
		reqs[i] = r
	}
	return reqs
}

// ftoa formats a float so that parsing it back yields the same bits.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// window is the extent zoomed by zoom around (cx, cy), clamped inside the
// extent.
func window(extent quad.Window, zoom, cx, cy float64) quad.Window {
	w := (extent.MaxX - extent.MinX) / zoom
	h := (extent.MaxY - extent.MinY) / zoom
	x0 := math.Min(math.Max(cx-w/2, extent.MinX), extent.MaxX-w)
	y0 := math.Min(math.Max(cy-h/2, extent.MinY), extent.MaxY-h)
	return quad.Window{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h}
}

// tileRequests draws Poisson arrivals over dur, each for a tile of zooms
// 0..maxZoom with Zipf popularity. Popularity rank follows zoom (low zooms
// hottest); within a zoom, tiles holding more points are more popular,
// jittered by a seeded log-normal factor, so each seed has its own hot
// neighbourhoods but every seed looks where the data is.
func tileRequests(s spec, rng *rand.Rand, extent quad.Window, coords []float64, dur time.Duration) []request {
	var ranked []tiles.Coord
	for z := 0; z <= s.maxZoom; z++ {
		n := 1 << z
		weight := make([]float64, n*n)
		for i := 0; i+1 < len(coords); i += 2 {
			x := int(float64(n) * (coords[i] - extent.MinX) / (extent.MaxX - extent.MinX))
			y := n - 1 - int(float64(n)*(coords[i+1]-extent.MinY)/(extent.MaxY-extent.MinY))
			weight[min(max(y, 0), n-1)*n+min(max(x, 0), n-1)]++
		}
		order := make([]int, n*n)
		for i := range order {
			order[i] = i
			weight[i] = (weight[i] + 1) * math.Exp(rng.NormFloat64())
		}
		sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
		for _, i := range order {
			ranked = append(ranked, tiles.Coord{Z: z, X: i % n, Y: i / n})
		}
	}
	// Zipf: rank r is drawn with probability ∝ (r+1)^-s.
	cdf := make([]float64, len(ranked))
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s.zipfS)
		cdf[r] = sum
	}
	var reqs []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / s.rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return reqs
		}
		c := ranked[min(sort.SearchFloat64s(cdf, rng.Float64()*sum), len(cdf)-1)]
		reqs = append(reqs, request{
			path: fmt.Sprintf("/tiles/crime/%d/%d/%d.png", c.Z, c.X, c.Y),
			tile: c,
			due:  due,
		})
	}
}
