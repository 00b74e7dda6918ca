package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/trace"
)

var workloads = []string{"viewport", "hotspots", "tiles"}

func tinyRun(t *testing.T, o options) (*result, []string) {
	t.Helper()
	o.seed, o.seconds, o.tiny = max(o.seed, 1), 1, true
	o.out = t.TempDir()
	var stdout bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := run(ctx, o, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not a result: %v", o.workload, err)
	}
	if !reflect.DeepEqual(&last, res) {
		t.Fatalf("%s: printed result differs from the returned one", o.workload)
	}
	return res, lines
}

func TestSeedDeterminesRequests(t *testing.T) {
	for _, w := range workloads {
		s, err := specFor(w, true)
		if err != nil {
			t.Fatal(err)
		}
		l, err := newLibrary(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen := func(seed int64) []request { return generate(s, seed, l.extent, l.coords, 5*time.Second) }
		a, b := gen(7), gen(7)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w)
		}
		for _, other := range []int64{8, heldOutSeed} {
			if reflect.DeepEqual(a, gen(other)) {
				t.Errorf("%s: seeds 7 and %d gave the same request list", w, other)
			}
		}
	}
}

// TestEveryBenchmarkMetricPrinted runs each workload of BENCHMARK.json at
// tiny scale, untraced and traced, and checks the result line names exactly
// the benchmark's end-to-end and per-layer metrics with their units.
func TestEveryBenchmarkMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bench struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			res, _ := tinyRun(t, options{workload: w.Name, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestExactCountersRepeat checks that two traced runs of one seed count
// exactly the same work (each run also checks its traced replay against an
// untraced one).
func TestExactCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		counts := func() string {
			_, lines := tinyRun(t, options{workload: w, seed: 3, trace: true})
			for _, l := range lines {
				if strings.HasPrefix(l, `{"counters"`) {
					return l
				}
			}
			t.Fatalf("%s: no counters line", w)
			return ""
		}
		a, b := counts(), counts()
		if a != b {
			t.Errorf("%s: counters differ between runs of one seed:\n%s\n%s", w, a, b)
		}
		if strings.Contains(a, `"pixels":0,`) {
			t.Errorf("%s: replay counted no pixels: %s", w, a)
		}
	}
}

// corrupting flips the first body byte of every render and tile response.
type corrupting struct {
	http.ResponseWriter
	done bool
}

func (c *corrupting) Write(b []byte) (int, error) {
	if !c.done && len(b) > 0 {
		c.done = true
		b = append([]byte{b[0] ^ 0xff}, b[1:]...)
	}
	return c.ResponseWriter.Write(b)
}

// TestGateFiresOnPlantedWrongOutput plants a server that corrupts its
// images and checks that every workload's correctness gate fails the run.
func TestGateFiresOnPlantedWrongOutput(t *testing.T) {
	plant := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch p := r.URL.Path; {
			case p == "/render", p == "/hotspots", strings.HasPrefix(p, "/tiles/"):
				w = &corrupting{ResponseWriter: w}
			}
			h.ServeHTTP(w, r)
		})
	}
	for _, w := range workloads {
		res, _ := tinyRun(t, options{workload: w, plant: plant})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: gate passed corrupted output (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := trace.New()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("root", nil, at(0), at(10))
	tr.Add("a", root, at(1), at(3))
	tr.Add("b", root, at(2), at(5)) // overlaps a: covers 1..5 together
	c := tr.Add("c", root, at(7), at(12))
	tr.Add("d", c, at(7), at(8))
	dur, self := selfTimes(tr.Spans())
	want := map[string]float64{"root": 10 - 4 - 3, "a": 2, "b": 3, "c": 4, "d": 1}
	for name, w := range want {
		if self[name][0] != w {
			t.Errorf("self(%s) = %v ms, want %v", name, self[name][0], w)
		}
	}
	if dur["c"][0] != 5 {
		t.Errorf("dur(c) = %v ms, want 5", dur["c"][0])
	}
}
