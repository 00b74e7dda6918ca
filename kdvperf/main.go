// Command kdvperf is the serving benchmark: it boots a real in-process
// kdvserve server on a loopback listener, drives one seeded workload
// against it over HTTP, checks the served outputs against the library and
// the exact oracle, and prints every metric by name with its unit. The
// last line of standard output is the result:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// taken from the untraced HTTP run. With --trace 1 the same HTTP run is
// followed by a traced replay of the request sequence through each layer's
// public Go functions, and the metrics are the per-layer ones; the spans
// are written to --out as a Chrome trace-event file.
//
// Usage (from the repository root):
//
//	bash kdvperf/run.sh --workload viewport --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/quadkdv/quad/internal/trace"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	tiny       bool   // test scale: small datasets and rasters
	out        string // artefact directory
	cpuprofile string
	memprofile string
	// plant, when set, wraps the server's handler; the tests use it to
	// corrupt responses and prove the correctness gate fires.
	plant func(http.Handler) http.Handler
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: viewport, hotspots or tiles")
	flag.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("workload seed (%d is held out for validating claims)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 20, "measured duration of the HTTP run")
	flag.IntVar(&traceFlag, "trace", 0, "1: also replay the sequence traced and report per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join("kdvperf", "out"), "directory for span files, counters and scratch tile stores")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the untraced HTTP run to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the HTTP run to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kdvperf:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(2)
	}
}

// run executes one benchmark run and prints its result.
func run(ctx context.Context, o options, stdout, stderr io.Writer) (*result, error) {
	s, err := specFor(o.workload, o.tiny)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	lib, err := newLibrary(s, nil)
	if err != nil {
		return nil, err
	}
	reqs := generate(s, o.seed, lib.extent, lib.coords, dur)
	fp := fingerprint()
	if err := printJSON(stdout, map[string]any{"fingerprint": fp}); err != nil {
		return nil, err
	}

	b, setup, err := setUp(ctx, s, scratch, o.plant)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	runtime.GC() // earlier set-ups' garbage must not count in heap_peak_mb
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	stopCPU, err := maybeStartCPUProfile(o.cpuprofile)
	if err != nil {
		return nil, err
	}
	heap := sampleHeap()
	var resps []response
	var elapsed time.Duration
	if s.rate > 0 {
		resps, elapsed = openLoop(b, s, reqs)
	} else {
		resps, elapsed = closedLoop(b, s, reqs, dur)
	}
	heapMB := heap.end()
	if err := stopCPU(); err != nil {
		return nil, err
	}
	if err := maybeWriteMemProfile(o.memprofile); err != nil {
		return nil, err
	}
	for b.srv.Auditor().Pending() > 0 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond) // let sampled audits finish before reading their counters
	}
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	res := &result{Metrics: make(map[string]metric)}
	var lat, lateness []float64
	ok := 0
	for i := range resps {
		r := &resps[i]
		if !r.sent {
			continue
		}
		res.Attempted++
		lateness = append(lateness, ms(r.lateness))
		if r.ok() {
			ok++
			lat = append(lat, ms(r.latency))
		} else {
			res.Failed++
			fmt.Fprintf(stderr, "request %d (%s): status %d, error %v\n", i, reqs[i].path, r.status, r.err)
		}
	}
	wrong := gate(ctx, lib, o.seed, reqs, resps)
	for i, why := range wrong {
		fmt.Fprintf(stderr, "wrong output for request %d (%s): %s\n", i, reqs[i].path, why)
	}
	violations := int(delta("kdv_audit_violations_total"))
	res.Failed += len(wrong) + violations
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if violations > 0 {
		fmt.Fprintf(stderr, "shadow audit reported %d violations\n", violations)
	}
	latP99 := quantile(lat, 0.99)
	lateP99 := quantile(lateness, 0.99)
	// The generator, not the server, set the tail when it dispatched
	// requests late by half the tail it measured.
	if s.rate > 0 && lateP99 > 0.5*latP99 {
		res.Correct = false
		fmt.Fprintf(stderr, "invalid run: generator lateness p99 %.3f ms vs latency p99 %.3f ms\n", lateP99, latP99)
	}
	fmt.Fprintf(stderr, "%s seed %d: %d requests (%d ok) in %.2f s, p50 %.3f ms, p99 over %d samples\n",
		s.name, o.seed, res.Attempted, ok, elapsed.Seconds(), quantile(lat, 0.5), len(lat))

	if !o.trace {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("latency_p50_ms", "ms", quantile(lat, 0.5))
		put("latency_p90_ms", "ms", quantile(lat, 0.9))
		if s.rate > 0 {
			// Only the open loop has enough samples beyond p99; on the
			// closed loops it is the slowest request or two of a run.
			put("latency_p99_ms", "ms", latP99)
		}
		put("throughput_rps", "1/s", float64(ok-len(wrong))/elapsed.Seconds())
		put("success_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(max(res.Attempted, 1)))
		put("setup_s", "s", quantile(setup, 0.5))
		put("heap_peak_mb", "MiB", heapMB)
		return res, printJSON(stdout, res)
	}

	tr, err := replay(ctx, s, reqs, resps, dur, scratch)
	if err == nil && s.endpoint == "hotspots" {
		err = replayBaseMap(ctx, o.tiny, o.seed, dur, scratch, tr)
	}
	if err != nil {
		// A replay that disagrees with the served bytes or with itself is a
		// wrong output, not a benchmark failure.
		fmt.Fprintln(stderr, "traced replay:", err)
		res.Failed++
		res.Correct = false
		tr = &traced{}
	}
	layerMetrics(res.Metrics, s, tr, delta, lateP99)
	if err := writeArtefacts(o, s, fp, tr, quantile(lat, 0.5), res.Metrics); err != nil {
		return nil, err
	}
	if err := printJSON(stdout, map[string]any{"counters": tr.counters}); err != nil {
		return nil, err
	}
	return res, printJSON(stdout, res)
}

// setUp boots s.setups servers one after another — each from nothing, with
// a fresh tile directory — and keeps the last one running.
func setUp(ctx context.Context, s spec, scratch string, plant func(http.Handler) http.Handler) (*server, []float64, error) {
	var times []float64
	var b *server
	for i := 0; i < s.setups; i++ {
		if b != nil {
			if err := b.stop(); err != nil {
				return nil, nil, err
			}
		}
		dir := ""
		if s.endpoint == "tiles" {
			var err error
			if dir, err = os.MkdirTemp(scratch, "tiles-"); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		b, d, err = boot(ctx, s, dir, plant)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return b, times, nil
}

// layerMetrics fills the per-layer metrics from the traced replay and the
// HTTP run's /metrics deltas. A layer the workload does not exercise
// reports 0.
func layerMetrics(m map[string]metric, s spec, tr *traced, delta func(string) float64, lateP99 float64) {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	pick := func(name string) []float64 {
		if v := tr.dur[name]; len(v) > 0 {
			return v
		}
		return tr.obs[name]
	}
	first := func(name string) float64 {
		if v := tr.dur[name]; len(v) > 0 {
			return v[0]
		}
		return 0
	}
	per := func(count, base int) float64 {
		if base == 0 {
			return 0
		}
		return float64(count) / float64(base)
	}
	c := tr.counters
	put("dataset.generate_ms", "ms", first("dataset.generate"))
	put("kdtree.build_ms", "ms", first("kdtree.build"))
	put("tiles.warm_s", "s", first("tiles.warm")/1000)
	put("quad.render_ms_p50", "ms", quantile(pick("quad.render"), 0.5))
	put("quad.render_ms_p90", "ms", quantile(pick("quad.render"), 0.9))
	put("quad.frontier_cpu_ms_p50", "ms", quantile(pick("quad.frontier"), 0.5))
	put("engine.refine_ms_p50", "ms", quantile(pick("engine.refine"), 0.5))
	put("quad.shared_evals_per_px", "evals/px", per(c.SharedNodeEvals, c.Pixels))
	put("engine.nodes_per_px", "nodes/px", per(c.NodeEvals, c.Pixels))
	put("engine.pops_per_px", "pops/px", per(c.Pops, c.Pixels))
	put("engine.leaf_scans_per_px", "scans/px", per(c.LeafScans, c.Pixels))
	put("engine.points_scanned_per_px", "points/px", per(c.PointsScanned, c.Pixels))
	put("quad.tiles_decided_ratio", "ratio", per(c.TilesDecided, c.Tiles))
	put("quad.threshold_ms_p50", "ms", quantile(pick("quad.threshold"), 0.5))
	put("render.colour_ms_p50", "ms", quantile(pick("render.colour"), 0.5))
	put("render.encode_ms_p50", "ms", quantile(pick("render.encode"), 0.5))
	put("render.png_kb_p50", "KiB", quantile(tr.obs["render.png_kb"], 0.5))
	lookups := c.TileMemory + c.TileDisk + c.TileBuild
	put("tiles.memory_hit_ratio", "ratio", per(c.TileMemory, lookups))
	put("tiles.disk_hit_ratio", "ratio", per(c.TileDisk, lookups))
	put("tiles.build_ratio", "ratio", per(c.TileBuild, lookups))
	bySource := make(map[string][]float64)
	for _, sp := range tr.spans {
		if sp.Name == "tiles.tile" {
			bySource[attrStr(sp, "source")] = append(bySource[attrStr(sp, "source")], ms(sp.Duration()))
		}
	}
	put("tiles.memory_ms_p50", "ms", quantile(bySource["memory"], 0.5))
	put("tiles.disk_ms_p50", "ms", quantile(bySource["disk"], 0.5))
	put("tiles.build_ms_p50", "ms", quantile(bySource["build"], 0.5))
	put("tiles.coalesced", "count", delta("kdv_tiles_coalesced_total"))
	put("serve.overhead_ms_p50", "ms", quantile(tr.overhead, 0.5))
	hits := delta("kdv_cache_hits_total")
	put("serve.kdv_cache_hit_ratio", "ratio", per(int(hits), int(hits+delta("kdv_cache_misses_total")+delta("kdv_cache_coalesced_total"))))
	put("audit.checks", "count", delta("kdv_audit_checks_total"))
	put("audit.violations", "count", delta("kdv_audit_violations_total"))
	put("audit.dropped", "count", delta("kdv_audit_dropped_total"))
	put("client.lateness_ms_p99", "ms", lateP99)
	pct := 0.0
	if tr.plainMs > 0 {
		pct = 100 * (tr.tracedMs - tr.plainMs) / tr.plainMs
	}
	put("trace.overhead_pct", "%", pct)
}

// writeArtefacts keeps the traced run's spans (Chrome trace-event format,
// loadable in Perfetto) and a JSON summary: the fingerprint, the exact
// counters, and each layer's self time next to the untraced latency it
// accounts for.
func writeArtefacts(o options, s spec, fp map[string]any, tr *traced, latP50 float64, m map[string]metric) error {
	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", s.name, o.seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	selfP50 := make(map[string]float64)
	var layerSum float64
	for name, v := range tr.self {
		selfP50[name] = quantile(v, 0.5)
		if name != "request" && name != "dataset.generate" && name != "kdtree.build" && name != "tiles.warm" {
			layerSum += selfP50[name]
		}
	}
	summary := map[string]any{
		"workload":              s.name,
		"seed":                  o.seed,
		"fingerprint":           fp,
		"counters":              tr.counters,
		"self_ms_p50":           selfP50,
		"latency_p50_ms":        latP50,
		"serve.overhead_ms_p50": m["serve.overhead_ms_p50"].Value,
		// Σ layer self-time medians + the serve overhead median, to hold
		// against the untraced latency median.
		"accounted_ms_p50": layerSum + m["serve.overhead_ms_p50"].Value,
		"metrics":          m,
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".layers.json", append(b, '\n'), 0o644)
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
