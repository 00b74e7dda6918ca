package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quadkdv/quad/internal/serve"
)

// server is one in-process kdvserve instance on a loopback listener: the
// real handler stack (middleware, admission, KDV cache, PNG encode, tile
// store, 1% shadow audit) with only the sizes the workload needs set.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

// boot starts a server and waits until /readyz answers 200, which runs
// Warmup: dataset generation, index build and, for tiles, the warm zooms.
// It returns the elapsed set-up time.
func boot(ctx context.Context, s spec, tilesDir string, plant func(http.Handler) http.Handler) (*server, time.Duration, error) {
	start := time.Now()
	srv := serve.NewServerWith(serve.Config{
		DefaultN:        s.n,
		TilesDir:        tilesDir,
		TileSize:        s.tileSize,
		TileMemoryBytes: s.tileMem,
		WarmZooms:       s.warm,
		SlowQueryLog:    io.Discard,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	h := srv.Handler()
	if plant != nil {
		h = plant(h)
	}
	b := &server{srv: srv, http: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { b.done <- b.http.Serve(ln) }()
	for {
		resp, err := http.Get(b.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return b, time.Since(start), nil
			}
		}
		select {
		case <-ctx.Done():
			b.stop()
			return nil, 0, fmt.Errorf("server never became ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the audit pool, shuts the listener down and waits for the
// serve goroutine to exit.
func (b *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.http.Shutdown(ctx)
	if serr := <-b.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, b.srv.Close())
}

// scrape reads /metrics and sums every sample of each family over its
// labels.
func (b *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// response is what the client keeps of one request: timings, status, the
// body's sha256 (the gate compares it against a library re-render) and the
// headers the gate and the replay check.
type response struct {
	sent     bool
	status   int
	err      error
	latency  time.Duration // from send (closed loop) or due time (open loop)
	service  time.Duration // from send to the last body byte
	lateness time.Duration // open loop: how late the generator dispatched
	sum      [sha256.Size]byte
	header   http.Header
}

func (r *response) ok() bool { return r.err == nil && (r.status == 200 || r.status == 304) }

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// fetch sends one GET and hashes the body through buf, a buffer the caller
// reuses so the client adds little garbage to the server's heap.
func fetch(c *http.Client, url string, r *response, buf []byte) {
	t0 := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		r.err = err
		r.service = time.Since(t0)
		return
	}
	h := sha256.New()
	_, err = io.CopyBuffer(h, resp.Body, buf)
	resp.Body.Close()
	r.service = time.Since(t0)
	r.status, r.err, r.header = resp.StatusCode, err, resp.Header
	h.Sum(r.sum[:0])
}

// closedLoop runs s.clients clients, each sending its next request as soon
// as the previous one completes, until dur has elapsed. It returns one
// response per request index; unsent indices have sent == false.
func closedLoop(b *server, s spec, reqs []request, dur time.Duration) ([]response, time.Duration) {
	c := newClient(s.clients)
	defer c.CloseIdleConnections()
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &out[i]
				r.sent = true
				fetch(c, b.base+reqs[i].path, r, buf)
				r.latency = r.service
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop sends each request at its scheduled due time on one of at most
// s.clients connections. Latency runs from the due time, so a request kept
// waiting behind slow ones is charged for the wait; lateness is how far the
// dispatcher itself overslept the due time.
func openLoop(b *server, s spec, reqs []request) ([]response, time.Duration) {
	c := newClient(s.clients)
	defer c.CloseIdleConnections()
	out := make([]response, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on a busy
	// connection and its lateness measures the generator alone.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for i := range queue {
				r := &out[i]
				fetch(c, b.base+reqs[i].path, r, buf)
				r.latency = time.Since(start.Add(reqs[i].due))
			}
		}()
	}
	for i, q := range reqs {
		due := start.Add(q.due)
		// Timer sleeps overshoot by up to a millisecond, more than a cache
		// hit takes to serve: sleep short of the due time, then spin.
		if d := time.Until(due); d > time.Millisecond {
			time.Sleep(d - time.Millisecond)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		out[i].sent = true
		out[i].lateness = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, time.Since(start)
}

// heapSampler records, for every GC cycle while it runs, the heap's peak
// in that cycle — live and not yet swept bytes just before the cycle ends,
// the top of the GC sawtooth — polling the runtime's own metrics (no
// stop-the-world). It reports the median of these peaks: the single
// highest one depends on whether a cycle happened to start in the middle
// of a rare large request, and spread by 25% between runs of one build.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	cycle uint64    // GC cycles completed at the last poll
	cur   uint64    // the current cycle's peak so far
	peaks []float64 // completed cycles' peaks, in MiB
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	read := func() {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c != h.cycle {
			if h.cur > 0 {
				h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
			}
			h.cycle, h.cur = c, 0
		}
		h.cur = max(h.cur, sample[0].Value.Uint64())
	}
	read()
	h.cur = 0 // the first poll may fall anywhere in a cycle
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// end stops the sampler and returns the median per-cycle peak in MiB (the
// peak so far when no cycle completed).
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	if len(h.peaks) == 0 {
		return float64(h.cur) / (1 << 20)
	}
	return quantile(h.peaks, 0.5)
}

// quantile returns the q-quantile of ms by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
