package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/tiles"
	"github.com/quadkdv/quad/internal/trace"
)

// traced is the outcome of the traced run: per-layer observations, the
// exact work counters summed over the replayed sequence, the spans, and the
// per-request layer sums the serve overhead is measured against.
type traced struct {
	spans    []*trace.Span
	dur      map[string][]float64 // span durations (ms) by span name
	self     map[string][]float64 // span self times (ms) by span name
	obs      map[string][]float64 // other per-request observations
	counters counters
	// overhead is, per replayed request the server also served, its HTTP
	// service time minus the replay's layer sum for the same request.
	overhead []float64
	// tracedMs and plainMs are the replay's total wall time with and
	// without spans.
	tracedMs, plainMs float64
}

// counters are the deterministic work counts of the replayed sequence.
// They must repeat bit for bit for one seed on any host.
type counters struct {
	Requests           int `json:"requests"`
	Pixels             int `json:"pixels"`
	Tiles              int `json:"tiles"`
	TilesDecided       int `json:"tiles_decided"`
	SharedNodeEvals    int `json:"shared_node_evals"`
	FrontierPromotions int `json:"frontier_promotions"`
	Pops               int `json:"pops"`
	NodeEvals          int `json:"node_evals"`
	LeafScans          int `json:"leaf_scans"`
	PointsScanned      int `json:"points_scanned"`
	TileMemory         int `json:"tile_memory"`
	TileDisk           int `json:"tile_disk"`
	TileBuild          int `json:"tile_build"`
}

func (c *counters) add(st quad.RenderStats) {
	c.Pixels += st.Pixels
	c.Tiles += st.Tiles
	c.TilesDecided += st.TilesDecided
	c.SharedNodeEvals += st.SharedNodeEvals
	c.FrontierPromotions += st.FrontierPromotions
	c.Pops += st.Iterations
	c.NodeEvals += st.NodesEvaluated
	c.LeafScans += st.LeafScans
	c.PointsScanned += st.PointsScanned
}

func (c *counters) source(src string) {
	switch src {
	case "memory":
		c.TileMemory++
	case "disk":
		c.TileDisk++
	default:
		c.TileBuild++
	}
}

// replay redoes the served sequence through each layer's public functions,
// twice per request — once recording spans, once not, in alternating order
// — and checks that both passes count exactly the same work and produce
// the served bytes. Closed loops replay their first s.replay requests with
// the workload's concurrency; the open loop replays the requests due in the
// first half of the run, sequentially, against fresh pyramids so that
// every lookup's cache level is deterministic.
func replay(ctx context.Context, s spec, reqs []request, resps []response, dur time.Duration, scratch string) (*traced, error) {
	tr := trace.New()
	l, err := newLibrary(s, tr)
	if err != nil {
		return nil, err
	}
	out := &traced{obs: make(map[string][]float64)}
	var plain counters
	if s.endpoint == "tiles" {
		err = replayTiles(ctx, l, tr, reqs, resps, dur, scratch, out, &plain)
	} else {
		err = replayRasters(ctx, l, tr, reqs, resps, out, &plain)
	}
	if err != nil {
		return nil, err
	}
	if plain != out.counters {
		return nil, fmt.Errorf("work counters differ between two replays of one sequence:\n%+v\n%+v", out.counters, plain)
	}
	out.spans = tr.Spans()
	out.dur, out.self = selfTimes(out.spans)
	// The per-request layer sum is everything under the request span except
	// the replay loop's own glue (the request span's self time).
	var i int
	for _, sp := range out.spans {
		if sp.Name != "request" || resps == nil {
			continue
		}
		idx := attrInt(sp, "index")
		layers := ms(sp.Duration()) - out.self["request"][i]
		i++
		r := &resps[idx]
		if s.endpoint == "tiles" && r.header.Get("X-Kdv-Tile-Source") != attrStr(sp, "source") {
			continue // the HTTP run found the tile at another cache level
		}
		out.overhead = append(out.overhead, ms(r.service)-layers)
	}
	return out, nil
}

func replayRasters(ctx context.Context, l *library, tr *trace.Trace, reqs []request, resps []response, out *traced, plain *counters) error {
	n := 0
	for n < l.s.replay && n < len(resps) && resps[n].sent && resps[n].ok() {
		n++
	}
	if n == 0 {
		return fmt.Errorf("no served request to replay")
	}
	var (
		next       atomic.Int64
		mu         sync.Mutex
		wg         sync.WaitGroup
		firstErr   error
		tms, pms   time.Duration
		tracedCtrs counters
	)
	for w := 0; w < l.s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var withSpans, without redone
				var dt, dp time.Duration
				var errT, errP error
				run := func(spans bool) {
					t0 := time.Now()
					if spans {
						root := tr.Start("request", nil)
						root.SetAttrs(trace.Int("index", i))
						withSpans, errT = l.redo(ctx, tr, root, reqs[i])
						root.End()
						dt = time.Since(t0)
						return
					}
					without, errP = l.redo(ctx, nil, nil, reqs[i])
					dp = time.Since(t0)
				}
				run(i%2 == 0)
				run(i%2 != 0)
				err := firstOf(errT, errP)
				if err == nil {
					err = checkServed(&resps[i], withSpans)
				}
				if err == nil && !sameWork(withSpans.stats, without.stats) {
					err = fmt.Errorf("request %d: work counters differ between replays", i)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("replay of request %d: %w", i, err)
				}
				tms += dt
				pms += dp
				tracedCtrs.Requests++
				tracedCtrs.add(withSpans.stats)
				plain.Requests++
				plain.add(without.stats)
				out.obs["render.png_kb"] = append(out.obs["render.png_kb"], withSpans.kb)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.counters = tracedCtrs
	out.tracedMs, out.plainMs = ms(tms), ms(pms)
	return firstErr
}

func replayTiles(ctx context.Context, l *library, tr *trace.Trace, reqs []request, resps []response, dur time.Duration, scratch string, out *traced, plain *counters) error {
	var stores []*tiles.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	open := func(name string, spans bool) (*tiles.Pyramid, error) {
		dir, err := os.MkdirTemp(scratch, name+"-")
		if err != nil {
			return nil, err
		}
		store := tiles.OpenStore(dir, nil)
		stores = append(stores, store)
		var sp *trace.Span
		if spans {
			sp = tr.Start("tiles.warm", nil)
		}
		pyr, err := l.newPyramid(ctx, store, tiles.NewLRU(l.s.tileMem, nil))
		if err == nil {
			_, err = pyr.Warm(ctx, l.s.warm)
		}
		sp.End()
		return pyr, err
	}
	pt, err := open("replay-traced", true)
	if err != nil {
		return err
	}
	pp, err := open("replay-plain", false)
	if err != nil {
		return err
	}
	var builtT, builtP quad.RenderStats
	pt.OnStats = func(st quad.RenderStats) { builtT = st }
	pp.OnStats = func(st quad.RenderStats) { builtP = st }
	var tms, pms time.Duration
	for i, r := range reqs {
		if r.due >= dur/2 {
			break
		}
		var srcT, srcP string
		var tile *tiles.Tile
		var errT, errP error
		run := func(spans bool) {
			t0 := time.Now()
			if spans {
				builtT = quad.RenderStats{}
				root := tr.Start("request", nil)
				sp := tr.Start("tiles.tile", root)
				tile, srcT, errT = pt.Tile(ctx, r.tile)
				sp.End()
				root.SetAttrs(trace.Int("index", i), trace.Str("source", srcT))
				sp.SetAttrs(trace.Str("tile", r.tile.String()), trace.Str("source", srcT))
				if srcT == "build" {
					sp.SetAttrs(statsAttrs(builtT)...)
				}
				root.End()
				tms += time.Since(t0)
				return
			}
			builtP = quad.RenderStats{}
			_, srcP, errP = pp.Tile(ctx, r.tile)
			pms += time.Since(t0)
		}
		run(i%2 == 0)
		run(i%2 != 0)
		if err := firstOf(errT, errP); err != nil {
			return fmt.Errorf("replay of tile %s: %w", r.tile, err)
		}
		if srcT != srcP {
			return fmt.Errorf("tile %s: replays found it in %s and %s", r.tile, srcT, srcP)
		}
		if resps != nil && resps[i].ok() && sha256.Sum256(tile.PNG) != resps[i].sum {
			return fmt.Errorf("tile %s: served PNG differs from the replay's", r.tile)
		}
		for _, c := range []*counters{&out.counters, plain} {
			c.Requests++
			c.source(srcT)
		}
		if srcT == "build" {
			out.counters.add(builtT)
			plain.add(builtP)
			out.obs["quad.render"] = append(out.obs["quad.render"], ms(builtT.Elapsed))
			out.obs["quad.frontier"] = append(out.obs["quad.frontier"], ms(builtT.SharedElapsed))
			out.obs["engine.refine"] = append(out.obs["engine.refine"], ms(builtT.Elapsed-builtT.SharedElapsed))
		}
		out.obs["render.png_kb"] = append(out.obs["render.png_kb"], float64(len(tile.PNG))/1024)
	}
	out.tracedMs, out.plainMs = ms(tms), ms(pms)
	return nil
}

// replayBaseMap measures the tiles layer on the hotspots workload, whose
// dashboards sit on a tile base map: the tiles workload's seeded tile
// sequence for the first half of the run is replayed, without HTTP,
// through fresh pyramids (memory, disk, build). Its spans, warm time and
// cache-level counts join the hotspots traced run.
func replayBaseMap(ctx context.Context, tiny bool, seed int64, dur time.Duration, scratch string, into *traced) error {
	s, err := specFor("tiles", tiny)
	if err != nil {
		return err
	}
	l, err := newLibrary(s, nil)
	if err != nil {
		return err
	}
	bm, err := replay(ctx, s, generate(s, seed, l.extent, l.coords, dur), nil, dur, scratch)
	if err != nil {
		return fmt.Errorf("base map: %w", err)
	}
	into.spans = append(into.spans, bm.spans...)
	into.dur["tiles.warm"] = bm.dur["tiles.warm"]
	into.counters.TileMemory = bm.counters.TileMemory
	into.counters.TileDisk = bm.counters.TileDisk
	into.counters.TileBuild = bm.counters.TileBuild
	return nil
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameWork reports whether two renders counted identical work: every
// RenderStats field except the wall-clock ones.
func sameWork(a, b quad.RenderStats) bool {
	a.Elapsed, a.SharedElapsed = b.Elapsed, b.SharedElapsed
	return a == b
}

// selfTimes returns every span's duration and self time — its duration
// minus the part of its interval that its children cover — in ms, grouped
// by span name in span order.
func selfTimes(spans []*trace.Span) (dur, self map[string][]float64) {
	children := make(map[trace.SpanID][]*trace.Span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	dur = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, sp := range spans {
		d := sp.Duration()
		var covered time.Duration
		var end time.Time // children merged in start order
		kids := append([]*trace.Span(nil), children[sp.ID]...)
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		for _, k := range kids {
			s, e := maxTime(k.Start, sp.Start, end), minTime(k.Finish, sp.Finish)
			if e.After(s) {
				covered += e.Sub(s)
				end = e
			}
		}
		dur[sp.Name] = append(dur[sp.Name], ms(d))
		self[sp.Name] = append(self[sp.Name], ms(d-covered))
	}
	return dur, self
}

func maxTime(ts ...time.Time) time.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t.After(m) {
			m = t
		}
	}
	return m
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func attrInt(sp *trace.Span, key string) int {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			if v, ok := a.Value().(float64); ok {
				return int(v)
			}
		}
	}
	return -1
}

func attrStr(sp *trace.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			if v, ok := a.Value().(string); ok {
				return v
			}
		}
	}
	return ""
}
