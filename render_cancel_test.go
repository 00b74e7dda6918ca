package quad

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/dataset"
)

// slowTiledKDV builds a KDV whose tile-shared renders are slow enough to
// cancel mid-tile: MinMax bounds (the loosest, so refinement is deep) over
// a large crime analogue, with tiles so large that the raster decomposes
// into exactly one tile per worker — between-tile polling alone could then
// only observe cancellation after a worker finishes its whole tile.
func slowTiledKDV(t *testing.T, n, tile, workers int, opts ...Option) *KDV {
	t.Helper()
	pts, err := dataset.Generate("crime", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(pts.Coords, pts.Dim,
		append([]Option{
			WithMethod(MethodMinMax),
			WithTileSize(tile),
			WithWorkers(workers),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers), failing after a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRenderCancelMidTileNoLeak is the tile-shared analogue of the scan
// path's cancellation test: with one 64×64 tile per worker, a prompt return
// is only possible if workers poll ctx inside tiles. The KDV's counting
// pool (scratchLive) then proves every worker returned its pooled scratch —
// the resource-leak half of the guarantee.
func TestRenderCancelMidTileNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	checkCancelMidTile(t, slowTiledKDV(t, 20000, 64, 4))
	waitGoroutines(t, base)
}

// TestRenderCancelMidTileBothLayouts keeps the per-layout form of the
// mid-tile cancellation guarantee. The flat SoA engine is the only layout
// now, so "flat" is its one case: its batched refinement loops must reach
// the in-tile poll points and return every pooled scratch.
func TestRenderCancelMidTileBothLayouts(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		checkCancelMidTile(t, slowTiledKDV(t, 20000, 64, 4))
	})
}

// checkCancelMidTile times a full εKDV render of k, then cancels a second
// render a twentieth of the way in: it must return context.Canceled and no
// map within half the full render's time, with no scratch checked out.
func checkCancelMidTile(t *testing.T, k *KDV) {
	t.Helper()
	res := Resolution{W: 128, H: 128}
	const eps = 0.001

	start := time.Now()
	if _, err := k.RenderEps(res, eps); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if live := k.scratchLive.Load(); live != 0 {
		t.Fatalf("after full render: %d render scratches still checked out", live)
	}
	if full < 30*time.Millisecond {
		t.Skipf("full render too fast to measure mid-tile cancellation (%s)", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	dm, err := k.RenderEpsCtx(ctx, res, eps)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dm != nil {
		t.Error("cancelled render returned a map")
	}
	if elapsed > full/2 {
		t.Errorf("cancelled render took %s of a %s render — tile interior did not poll ctx", elapsed, full)
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("after cancelled render: %d render scratches still checked out", live)
	}
}

// TestRenderTauCancelMidTileNoLeak covers the τKDV tile runner: cancelled
// mid-render it must return ctx.Err(), return all pooled scratch, and leave
// no worker goroutines behind.
func TestRenderTauCancelMidTileNoLeak(t *testing.T) {
	k := slowTiledKDV(t, 20000, 64, 4)
	res := Resolution{W: 128, H: 128}

	// A τ near the raster's interior density keeps most tiles undecided, so
	// per-pixel refinement (the cancellable part) dominates.
	mid, err := k.Density([]float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := k.RenderTau(res, mid); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 30*time.Millisecond {
		t.Skipf("full render too fast to measure mid-tile cancellation (%s)", full)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	hm, err := k.RenderTauCtx(ctx, res, mid)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hm != nil {
		t.Error("cancelled render returned a map")
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("after cancelled render: %d render scratches still checked out", live)
	}
	waitGoroutines(t, base)
}

// TestConcurrentRendersCancelHalf is the serving pattern: several
// multi-worker renders share one KDV's engine and scratch pools, and some
// of their clients go away. Eight WithWorkers(4) renders run at once; half
// are cancelled mid-tile. The cancelled ones must return context.Canceled
// and no map, the survivors must match a lone render bit for bit, and
// every pooled scratch must come back.
func TestConcurrentRendersCancelHalf(t *testing.T) {
	k := slowTiledKDV(t, 10000, 16, 4)
	res := Resolution{W: 64, H: 64}
	const eps = 0.001

	start := time.Now()
	ref, err := k.RenderEps(res, eps)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 30*time.Millisecond {
		t.Skipf("full render too fast to cancel mid-tile (%s)", full)
	}

	base := runtime.NumGoroutine()
	type result struct {
		dm  *DensityMap
		err error
	}
	results := make([]result, 8)
	done := make(chan int)
	for i := range results {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 1 {
			time.AfterFunc(full/20, cancel)
		}
		go func() {
			defer cancel()
			dm, err := k.RenderEpsCtx(ctx, res, eps)
			results[i] = result{dm, err}
			done <- i
		}()
	}
	for range results {
		<-done
	}
	for i, r := range results {
		if i%2 == 1 {
			if !errors.Is(r.err, context.Canceled) || r.dm != nil {
				t.Errorf("render %d: err = %v, map = %v; want context.Canceled and no map", i, r.err, r.dm != nil)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("render %d: %v", i, r.err)
		}
		for p := range ref.Values {
			if math.Float64bits(r.dm.Values[p]) != math.Float64bits(ref.Values[p]) {
				t.Fatalf("render %d differs from the lone render at pixel %d", i, p)
			}
		}
	}
	if live := k.scratchLive.Load(); live != 0 {
		t.Errorf("%d render scratches still checked out", live)
	}
	waitGoroutines(t, base)
}
