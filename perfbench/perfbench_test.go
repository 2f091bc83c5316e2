package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nwhy"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the harness: the same
// workloads, and the same metric names and units in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if f.EndToEnd[i].Name != m.name || f.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, f.EndToEnd[i], m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f.PerLayer[i].Name != m.name || f.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, f.PerLayer[i], m)
		}
	}
}

// smoke runs one workload at a small scale and returns its result.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"--workload", workload, "--seed", "7", "--seconds", "3", "--trace", trace, "--scale", "0.2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v\nstderr:\n%s", res, stderr.String())
	}
	return res
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// scale: every answer checks out (error rate 0) and every metric of the
// run's kind is emitted, no other.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, "0")
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			res = smoke(t, name, "1")
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", m.name, got)
				}
			}
		})
	}
}

// TestOpenLoopAccounting checks the generator's backlog and lag arithmetic
// on a hand-made schedule.
func TestOpenLoopAccounting(t *testing.T) {
	mk := func(due, sent, done int) *call {
		return &call{due: time.Duration(due) * time.Millisecond, sent: time.Duration(sent) * time.Millisecond, done: time.Duration(done) * time.Millisecond}
	}
	p := phase{calls: []*call{
		mk(0, 0, 10),
		mk(1, 1, 12),
		mk(2, 10, 15), // waited 8 ms for a connection
		mk(20, 20, 21),
	}}
	if got := p.maxOutstanding(); got != 3 {
		t.Errorf("maxOutstanding = %d, want 3", got)
	}
	if got := p.latencies(false); got[2] != 13 {
		t.Errorf("latency from due time = %v ms, want 13", got[2])
	}
	if got := p.lagP99(); got < 7.5 || got > 8 {
		t.Errorf("lag p99 = %v ms, want just under 8", got)
	}
}

func TestCanonicalAndQuantile(t *testing.T) {
	a := canonical([]uint32{7, 7, 3, 9, 3})
	b := canonical([]uint32{1, 1, 0, 2, 0})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical forms differ: %v vs %v", a, b)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	// Harrell–Davis: symmetric data gives the exact median, and a high
	// quantile lands between the top order statistics.
	xs := []float64{5, 1, 4, 2, 3}
	if got := hdQuantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("HD median = %v, want 3", got)
	}
	if got := hdQuantile(xs, 0.99); got < 4 || got > 5 {
		t.Errorf("HD p99 = %v, want within [4, 5]", got)
	}
}

// TestBlockSchedule checks that every block holds the exact composition,
// that serve-mutate's writes keep every tenth position, and that the even
// kinds of serve-mixed (its uncached requests) are never adjacent.
func TestBlockSchedule(t *testing.T) {
	for name, mix := range map[string]blockMix{"serve-mutate": mutateBlock, "serve-mixed": mixedBlock} {
		s := mix.schedule(3)
		even := map[string]bool{}
		for _, k := range mix.kinds {
			even[k.kind] = k.even
		}
		for block := 0; block < 3; block++ {
			counts := map[string]int{}
			last := -mix.size
			for pos := 0; pos < mix.size; pos++ {
				kind, nth := s.at(block*mix.size + pos)
				counts[kind]++
				if name == "serve-mutate" && (kind == "mutate") != (pos%10 == 0) {
					t.Errorf("%s block %d position %d is %s", name, block, pos, kind)
				}
				if even[kind] {
					if pos-last < 2 {
						t.Errorf("%s block %d: even requests at adjacent positions %d and %d", name, block, last, pos)
					}
					last = pos
				}
				if nth/mix.count(kind) != block {
					t.Errorf("%s block %d position %d: ordinal %d of %s lies in another block", name, block, pos, nth, kind)
				}
			}
			for _, k := range mix.kinds {
				if counts[k.kind] != k.count {
					t.Errorf("%s block %d has %d %s, want %d", name, block, counts[k.kind], k.kind, k.count)
				}
			}
		}
	}
}

// TestTracedLoadMatchesLoadFile pins the traced batch path to LoadFile: the
// same file gives the same hypergraph, incidence for incidence.
func TestTracedLoadMatchesLoadFile(t *testing.T) {
	eng := nwhy.NewEngine(0)
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "in.mtx")
	if err := nwhy.Wrap(batchShapes[1].build(5, 0.05)).Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := nwhy.LoadFile(path, nwhy.LoadOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracedLoad(eng, batchJob{path: path}, newTracer(), 0, 1, &batchLayers{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("traced load stats %+v, LoadFile %+v", got.Stats(), want.Stats())
	}
	for e := 0; e < want.NumEdges(); e++ {
		if !slices.Equal(got.Incidence(e), want.Incidence(e)) {
			t.Fatalf("hyperedge %d: traced load %v, LoadFile %v", e, got.Incidence(e), want.Incidence(e))
		}
	}
}

// TestInputsDeterministic checks that every generated input is a function of
// the seed alone: two builds from one seed give the same hypergraph.
func TestInputsDeterministic(t *testing.T) {
	shapes := append(append(slices.Clone(batchShapes), serveShapes...), mutateShape)
	for _, sh := range shapes {
		a, b := nwhy.Wrap(sh.build(9, 0.1)), nwhy.Wrap(sh.build(9, 0.1))
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: %d vs %d hyperedges from one seed", sh.name, a.NumEdges(), b.NumEdges())
		}
		for e := 0; e < a.NumEdges(); e++ {
			if !slices.Equal(a.Incidence(e), b.Incidence(e)) {
				t.Fatalf("%s: hyperedge %d differs between two builds from one seed", sh.name, e)
			}
		}
	}
}
