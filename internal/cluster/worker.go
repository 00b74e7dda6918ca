// Package cluster is the horizontal scale-out layer behind kdvserve: a
// coordinator that partitions /render work across N worker processes by
// data shard and merges the per-shard rasters additively, and the worker's
// internal HTTP API serving those shard renders.
//
// Kernel densities are additive — Σ over a partition of the dataset
// composes exactly, and per-shard QUAD/KARL quadratic bounds sum to valid
// global bounds — so the fan-out preserves the paper's ε guarantee: each
// worker renders its Z-order shard (quad.WithShard) against the full
// dataset's window and bandwidth, and the coordinator sums rasters pixel by
// pixel in shard order.
//
// The robustness core lives in the coordinator: per-worker circuit breakers
// (closed/open/half-open with failure-rate tripping), bounded retries with
// jittered exponential backoff and per-attempt timeouts derived from the
// request deadline, hedged requests against stragglers (second attempt
// after a latency-quantile delay, first success wins), consistent-hash
// routing for cache affinity, and graceful degradation — when a shard stays
// unreachable past budget the merged raster of the live shards is served
// with X-KDV-Complete: false and X-KDV-Shards: k/n.
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/trace"
)

// ShardRenderPath is the worker's internal shard-render endpoint.
const ShardRenderPath = "/internal/shard-render"

// Response headers of the shard-render API.
const (
	headerShard  = "X-KDV-Shard"        // "i/n"
	headerRes    = "X-KDV-Res"          // "WxH"
	headerWindow = "X-KDV-Window"       // "minX,minY,maxX,maxY"
	headerStats  = "X-KDV-Render-Stats" // RenderStats as JSON
)

// rasterContentType is the wire format of a shard raster: W·H little-endian
// float64 density values, row-major, pixel (0,0) lower-left.
const rasterContentType = "application/x-kdv-raster"

// maxPixels mirrors the serving layer's raster cap.
const maxPixels = 2560 * 1920

// maxN mirrors the serving layer's dataset-cardinality cap.
const maxN = 10_000_000

// ShardSpec identifies one shard of a Count-way Z-order partition.
type ShardSpec struct {
	Index, Count int
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Validate reports whether the spec is a well-formed partition member.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("cluster: shard count %d must be at least 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("cluster: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// ParseShardSpec parses the "i/n" form used on the wire.
func ParseShardSpec(v string) (ShardSpec, error) {
	i, n, ok := strings.Cut(v, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard %q (want i/n)", v)
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard index %q", i)
	}
	cnt, err := strconv.Atoi(n)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: bad shard count %q", n)
	}
	s := ShardSpec{Index: idx, Count: cnt}
	return s, s.Validate()
}

// WorkerConfig tunes a worker. Zero fields take defaults.
type WorkerConfig struct {
	// CacheSize bounds the worker's shard-KDV build cache, in entries
	// (default 8; a shard build holds a kd-tree over its slice of points).
	CacheSize int
	// Registry receives the worker's metric families (nil → a private
	// registry; expose it via Registry()).
	Registry *telemetry.Registry
	// TraceLog, when set, receives the worker-side spans of traced shard
	// renders as JSON lines. Requests carrying a W3C traceparent are traced
	// regardless (continuing the coordinator's trace) but only exported
	// when TraceLog is set.
	TraceLog io.Writer
}

// Worker serves shard renders over the internal HTTP API. The same binary
// that runs the coordinator runs workers (kdvserve -worker); any worker can
// serve any shard — the shard spec arrives with each request and built
// shard KDVs are cached.
type Worker struct {
	cfg   WorkerConfig
	reg   *telemetry.Registry
	cache *shardKDVCache

	renders  map[string]*telemetry.Counter // outcome → counter
	buildSec *telemetry.Histogram
	traceMu  sync.Mutex
}

// NewWorker constructs a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 8
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	w := &Worker{
		cfg:     cfg,
		reg:     reg,
		cache:   newShardKDVCache(cfg.CacheSize),
		renders: make(map[string]*telemetry.Counter, 3),
	}
	for _, oc := range []string{"ok", "error", "cancelled"} {
		w.renders[oc] = reg.Counter("kdv_worker_shard_renders_total",
			"Shard renders served by this worker, by outcome.",
			telemetry.L("outcome", oc))
	}
	w.buildSec = reg.Histogram("kdv_worker_shard_build_seconds",
		"Wall time of shard KDV builds (dataset generation + Z-order split + kd-tree).",
		telemetry.DurationBuckets)
	w.cache.instrument(reg)
	return w
}

// Registry exposes the worker's metric registry.
func (w *Worker) Registry() *telemetry.Registry { return w.reg }

// Handler returns the worker's HTTP handler tree: the internal shard-render
// endpoint plus liveness and metrics.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+ShardRenderPath, w.handleShardRender)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write([]byte(`{"status":"ok","role":"worker"}` + "\n"))
	})
	mux.Handle("GET /metrics", w.reg.Handler())
	return mux
}

// shardRenderParams are the parsed wire parameters of one shard render.
type shardRenderParams struct {
	Dataset string
	N       int
	Seed    int64
	Kernel  quad.Kernel
	Method  quad.Method
	Eps     float64
	Res     quad.Resolution
	Window  quad.Window // zero → full-dataset window
	Shard   ShardSpec
}

func parseShardRenderParams(q map[string][]string) (*shardRenderParams, error) {
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	p := &shardRenderParams{}
	p.Dataset = get("dataset")
	if p.Dataset == "" {
		return nil, fmt.Errorf("dataset parameter is required")
	}
	n, err := strconv.Atoi(get("n"))
	if err != nil || n < 1 || n > maxN {
		return nil, fmt.Errorf("bad n %q", get("n"))
	}
	p.N = n
	p.Seed, err = strconv.ParseInt(get("seed"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad seed %q", get("seed"))
	}
	p.Kernel, err = quad.ParseKernel(get("kernel"))
	if err != nil {
		return nil, err
	}
	p.Method, err = quad.ParseMethod(get("method"))
	if err != nil {
		return nil, err
	}
	if p.Method == quad.MethodZOrder {
		return nil, fmt.Errorf("method zorder is not shardable")
	}
	p.Eps, err = strconv.ParseFloat(get("eps"), 64)
	if err != nil || p.Eps < 0 || p.Eps > 1 {
		return nil, fmt.Errorf("bad eps %q", get("eps"))
	}
	wpart, hpart, ok := strings.Cut(strings.ToLower(get("res")), "x")
	if !ok {
		return nil, fmt.Errorf("bad res %q", get("res"))
	}
	if p.Res.W, err = strconv.Atoi(wpart); err != nil {
		return nil, fmt.Errorf("bad res %q", get("res"))
	}
	if p.Res.H, err = strconv.Atoi(hpart); err != nil {
		return nil, fmt.Errorf("bad res %q", get("res"))
	}
	if p.Res.W < 1 || p.Res.H < 1 || p.Res.W*p.Res.H > maxPixels {
		return nil, fmt.Errorf("resolution %dx%d out of range", p.Res.W, p.Res.H)
	}
	if v := get("bbox"); v != "" {
		parts := strings.Split(v, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad bbox %q", v)
		}
		vals := make([]float64, 4)
		for i, s := range parts {
			if vals[i], err = strconv.ParseFloat(strings.TrimSpace(s), 64); err != nil {
				return nil, fmt.Errorf("bad bbox %q", v)
			}
		}
		p.Window = quad.Window{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
		if p.Window.MaxX <= p.Window.MinX || p.Window.MaxY <= p.Window.MinY {
			return nil, fmt.Errorf("degenerate bbox %q", v)
		}
	}
	p.Shard, err = ParseShardSpec(get("shard"))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// query encodes the params back into wire form (the coordinator side).
func (p *shardRenderParams) query() string {
	v := make([]string, 0, 9)
	v = append(v,
		"dataset="+p.Dataset,
		"n="+strconv.Itoa(p.N),
		"seed="+strconv.FormatInt(p.Seed, 10),
		"kernel="+p.Kernel.String(),
		"method="+p.Method.String(),
		"eps="+strconv.FormatFloat(p.Eps, 'g', -1, 64),
		"res="+fmt.Sprintf("%dx%d", p.Res.W, p.Res.H),
		"shard="+p.Shard.String(),
	)
	if !p.Window.IsZero() {
		v = append(v, fmt.Sprintf("bbox=%g,%g,%g,%g",
			p.Window.MinX, p.Window.MinY, p.Window.MaxX, p.Window.MaxY))
	}
	return strings.Join(v, "&")
}

// cacheKey identifies a built shard KDV.
func (p *shardRenderParams) cacheKey() string {
	return fmt.Sprintf("%s/%d/%d/%s/%s/%s", p.Dataset, p.N, p.Seed, p.Kernel, p.Method, p.Shard)
}

func (w *Worker) handleShardRender(rw http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var tr *trace.Trace
	if tid, sid, err := trace.ParseTraceparent(r.Header.Get(trace.Header)); err == nil {
		tr = trace.Resume(tid, sid)
		ctx = trace.NewContext(ctx, tr)
	}
	sp, ctx := trace.StartSpan(ctx, "cluster.shard.render")
	defer func() {
		sp.End()
		if tr != nil && w.cfg.TraceLog != nil {
			w.traceMu.Lock()
			if err := trace.WriteJSONL(w.cfg.TraceLog, tr.Spans()); err != nil {
				slog.Error("worker trace export failed", "component", "cluster", "error", err)
			}
			w.traceMu.Unlock()
		}
	}()

	p, err := parseShardRenderParams(r.URL.Query())
	if err != nil {
		w.renders["error"].Inc()
		sp.SetAttrs(trace.Str("outcome", "bad-request"))
		workerError(rw, http.StatusBadRequest, err)
		return
	}
	sp.SetAttrs(
		trace.Str("shard", p.Shard.String()),
		trace.Str("dataset", p.Dataset),
		trace.Str("res", p.Res.String()),
	)

	kdv, err := w.cache.get(ctx, p.cacheKey(), func() (*quad.KDV, error) {
		return w.buildShardKDV(p)
	})
	if err != nil {
		w.renders["error"].Inc()
		sp.SetAttrs(trace.Str("outcome", "build-error"))
		workerError(rw, statusFor(ctx, err), err)
		return
	}

	dm, st, err := kdv.RenderEpsStatsInCtx(ctx, p.Res, p.Eps, p.Window)
	if err != nil {
		if ctx.Err() != nil {
			w.renders["cancelled"].Inc()
			sp.SetAttrs(trace.Str("outcome", "cancelled"))
		} else {
			w.renders["error"].Inc()
			sp.SetAttrs(trace.Str("outcome", "render-error"))
		}
		workerError(rw, statusFor(ctx, err), err)
		return
	}
	defer dm.Release()
	w.renders["ok"].Inc()
	sp.SetAttrs(trace.Str("outcome", "ok"), trace.Int("node_evals", st.NodesEvaluated))

	statsJSON, _ := json.Marshal(st)
	h := rw.Header()
	h.Set("Content-Type", rasterContentType)
	h.Set(headerShard, p.Shard.String())
	h.Set(headerRes, p.Res.String())
	h.Set(headerWindow, fmt.Sprintf("%.17g,%.17g,%.17g,%.17g",
		dm.WindowMin[0], dm.WindowMin[1], dm.WindowMax[0], dm.WindowMax[1]))
	h.Set(headerStats, string(statsJSON))
	h.Set("Content-Length", strconv.Itoa(8*len(dm.Values)))
	buf := make([]byte, 8*len(dm.Values))
	for i, v := range dm.Values {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, _ = rw.Write(buf)
}

// buildShardKDV generates the dataset and builds the shard-restricted KDV.
// quad.WithShard derives the bandwidth, weight normalization, and default
// render window from the FULL dataset before restricting to the shard's
// Z-order range, which is what makes per-shard rasters merge exactly. Shard
// renders spread their tiles over every core; the raster is bit-identical to
// a one-worker render.
func (w *Worker) buildShardKDV(p *shardRenderParams) (*quad.KDV, error) {
	start := time.Now()
	defer func() { w.buildSec.ObserveDuration(time.Since(start)) }()
	pts, err := dataset.Generate(p.Dataset, p.N, p.Seed)
	if err != nil {
		return nil, err
	}
	pts = dataset.First2D(pts)
	return quad.New(pts.Coords, pts.Dim,
		quad.WithKernel(p.Kernel),
		quad.WithMethod(p.Method),
		quad.WithShard(p.Shard.Index, p.Shard.Count),
		quad.WithWorkers(runtime.GOMAXPROCS(0)))
}

func statusFor(ctx context.Context, err error) int {
	if ctx.Err() != nil {
		// The coordinator hung up or its deadline fired; the status is
		// moot, but 499-style signaling beats a misleading 500.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// workerError writes the structured JSON error body of the internal API.
func workerError(rw http.ResponseWriter, status int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]any{"error": err.Error(), "status": status})
}

// shardKDVCache is a bounded LRU of built shard KDVs with singleflight
// builds, the worker-side sibling of the serving layer's KDV cache. Builds
// run detached from the requesting context, so a coordinator that hedges
// away mid-build does not poison the build for the retry that follows.
type shardKDVCache struct {
	mu       sync.Mutex
	max      int
	order    []string // LRU order, most recent last
	entries  map[string]*quad.KDV
	building map[string]*shardBuild

	builds, hits *telemetry.Counter
	resident     *telemetry.Gauge
}

type shardBuild struct {
	done chan struct{}
	kdv  *quad.KDV
	err  error
}

func newShardKDVCache(max int) *shardKDVCache {
	if max < 1 {
		max = 1
	}
	return &shardKDVCache{
		max:      max,
		entries:  make(map[string]*quad.KDV),
		building: make(map[string]*shardBuild),
	}
}

func (c *shardKDVCache) instrument(reg *telemetry.Registry) {
	c.builds = reg.Counter("kdv_worker_shard_builds_total", "Shard KDV builds started.")
	c.hits = reg.Counter("kdv_worker_shard_cache_hits_total", "Shard KDV cache hits.")
	c.resident = reg.Gauge("kdv_worker_shard_cache_entries", "Shard KDV cache residency.")
}

func (c *shardKDVCache) get(ctx context.Context, key string, build func() (*quad.KDV, error)) (*quad.KDV, error) {
	c.mu.Lock()
	if k, ok := c.entries[key]; ok {
		c.touchLocked(key)
		c.mu.Unlock()
		c.hits.Inc()
		return k, nil
	}
	if b, ok := c.building[key]; ok {
		c.mu.Unlock()
		select {
		case <-b.done:
			return b.kdv, b.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b := &shardBuild{done: make(chan struct{})}
	c.building[key] = b
	c.mu.Unlock()
	c.builds.Inc()
	go func() {
		kdv, err := build()
		c.mu.Lock()
		delete(c.building, key)
		if err == nil {
			c.insertLocked(key, kdv)
		}
		b.kdv, b.err = kdv, err
		c.mu.Unlock()
		close(b.done)
	}()
	select {
	case <-b.done:
		return b.kdv, b.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *shardKDVCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

func (c *shardKDVCache) insertLocked(key string, k *quad.KDV) {
	if _, ok := c.entries[key]; ok {
		c.entries[key] = k
		c.touchLocked(key)
		return
	}
	c.entries[key] = k
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.resident.Set(int64(len(c.order)))
}
