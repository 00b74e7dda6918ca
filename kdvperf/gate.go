package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/tiles"
)

// gate checks the outputs of a timed run. Every successful response gets
// the cheap checks (a complete /render raster; a tile ETag equal to the
// sha256 of its body). A seeded sample is then redone through the library:
// the served PNG must be byte-identical to the library's, and sampled
// pixels must meet the exact oracle — relative error ≤ ε for εKDV, exact
// classification against the served τ for τKDV. The result maps each wrong
// request index to what was wrong with it.
func gate(ctx context.Context, l *library, seed int64, reqs []request, resps []response) map[int]string {
	wrong := make(map[int]string)
	var served []int
	seen := make(map[tiles.Coord]bool)
	for i := range resps {
		r := &resps[i]
		if !r.sent || !r.ok() {
			continue
		}
		switch l.s.endpoint {
		case "render":
			if r.header.Get("X-Kdv-Complete") != "true" {
				wrong[i] = "raster served incomplete"
				continue
			}
		case "tiles":
			want := `"` + hex.EncodeToString(r.sum[:16]) + `"`
			if got := r.header.Get("ETag"); got != want {
				wrong[i] = fmt.Sprintf("ETag %s is not the body's sha256 %s", got, want)
				continue
			}
			if seen[reqs[i].tile] {
				continue // sample distinct tiles only
			}
			seen[reqs[i].tile] = true
		}
		served = append(served, i)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(served), func(a, b int) { served[a], served[b] = served[b], served[a] })
	if len(served) > l.s.gate {
		served = served[:l.s.gate]
	}
	var pyr *tiles.Pyramid
	for _, i := range served {
		var err error
		if l.s.endpoint == "tiles" {
			if pyr == nil {
				pyr, err = l.newPyramid(ctx, nil, tiles.NewLRU(64<<20, nil))
			}
			if err == nil {
				err = l.checkTile(ctx, rng, pyr, reqs[i].tile, &resps[i])
			}
		} else {
			err = l.checkRaster(ctx, rng, reqs[i], &resps[i])
		}
		if err != nil {
			wrong[i] = err.Error()
		}
	}
	return wrong
}

func (l *library) checkRaster(ctx context.Context, rng *rand.Rand, r request, resp *response) error {
	out, err := l.redo(ctx, nil, nil, r)
	if err != nil {
		return err
	}
	if err := checkServed(resp, out); err != nil {
		return err
	}
	// The pixel-centre mapping, rebuilt from the raster's recorded window
	// exactly as the engine built it.
	var mn, mx [2]float64
	if out.dm != nil {
		mn, mx = out.dm.WindowMin, out.dm.WindowMax
	} else {
		mn, mx = out.hm.WindowMin, out.hm.WindowMax
	}
	g, err := grid.New(grid.Resolution{W: l.s.res.W, H: l.s.res.H}, geom.Rect{Min: mn[:], Max: mx[:]})
	if err != nil {
		return err
	}
	return l.checkOracle(rng, g, out, l.s.eps)
}

func (l *library) checkTile(ctx context.Context, rng *rand.Rand, pyr *tiles.Pyramid, c tiles.Coord, resp *response) error {
	t, _, err := pyr.Tile(ctx, c)
	if err != nil {
		return err
	}
	if sha256.Sum256(t.PNG) != resp.sum {
		return fmt.Errorf("tile %s: served PNG differs from the library's", c)
	}
	g, full, sub, err := l.tileGrid(c, pyr)
	if err != nil {
		return err
	}
	dm, err := l.k.RenderEpsSubInCtx(ctx, full, l.s.eps, quad.Window{}, sub)
	if err != nil {
		return err
	}
	if err := l.checkOracle(rng, g, redone{dm: dm}, l.s.eps); err != nil {
		return fmt.Errorf("tile %s: %w", c, err)
	}
	return nil
}
