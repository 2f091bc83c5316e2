package main

import (
	"runtime"
	"time"
)

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports all of them; an op is one batch job or one
// HTTP request.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. Each is named for the
// module whose public call the benchmark times; a layer a workload does not
// exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"mmio.parse_ms", "ms"},
	{"mmio.parse_mb_per_s", "MB/s"},
	{"mmio.snapshot_load_ms", "ms"},
	{"sparse.dedup_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.stats_ms", "ms"},
	{"core.cc_ms", "ms"},
	{"core.bfs_ms", "ms"},
	{"core.toplex_ms", "ms"},
	{"slinegraph.degree_stats_ms", "ms"},
	{"slinegraph.construct_ms", "ms"},
	{"slinegraph.construct_alloc_mb", "MB"},
	{"slinegraph.line_edges", "count"},
	{"slinegraph.yield", "ratio"},
	{"slinegraph.scc_ms", "ms"},
	{"slinegraph.refresh_ms", "ms"},
	{"slinegraph.refresh_patched_ratio", "ratio"},
	{"smetrics.lg_cc_ms", "ms"},
	{"smetrics.sdistance_ms", "ms"},
	{"smetrics.centrality_ms", "ms"},
	{"nwhy.load_ms", "ms"},
	{"nwhy.commit_ms", "ms"},
	{"nwhy.incremental_scc_ms", "ms"},
	{"nwhy.incremental_ratio", "ratio"},
	{"server.slinegraph_ms", "ms"},
	{"server.scc_ms", "ms"},
	{"server.sdistance_ms", "ms"},
	{"server.spath_ms", "ms"},
	{"server.centrality_ms", "ms"},
	{"server.stats_ms", "ms"},
	{"server.toplexes_ms", "ms"},
	{"server.mutate_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.resp_bytes", "bytes"},
	{"server.queue_ms", "ms"},
	{"server.rejected", "count"},
	{"server.timed_out", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_misses", "count"},
	{"server.cache_waits", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.max_outstanding", "count"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.open_p99_ms", "ms"},
	{"loadgen.write_p50_ms", "ms"},
	{"loadgen.write_p99_ms", "ms"},
	{"loadgen.error_rate", "ratio"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps a per-layer metric to the span name whose mean duration
// it reports.
var spanMetrics = map[string]string{
	"mmio.parse_ms":              "mmio.parse",
	"mmio.snapshot_load_ms":      "mmio.snapshot_load",
	"sparse.dedup_ms":            "sparse.dedup",
	"core.build_ms":              "core.build",
	"core.stats_ms":              "core.stats",
	"core.cc_ms":                 "core.cc",
	"core.bfs_ms":                "core.bfs",
	"core.toplex_ms":             "core.toplex",
	"slinegraph.degree_stats_ms": "slinegraph.degree_stats",
	"slinegraph.construct_ms":    "slinegraph.construct",
	"slinegraph.scc_ms":          "slinegraph.scc",
	"slinegraph.refresh_ms":      "slinegraph.refresh",
	"smetrics.lg_cc_ms":          "smetrics.lg_cc",
	"smetrics.sdistance_ms":      "smetrics.sdistance",
	"smetrics.centrality_ms":     "smetrics.centrality",
	"nwhy.load_ms":               "nwhy.load",
	"nwhy.commit_ms":             "nwhy.commit",
	"nwhy.incremental_scc_ms":    "nwhy.incremental_scc",
	"server.slinegraph_ms":       "server.slinegraph",
	"server.scc_ms":              "server.scc",
	"server.sdistance_ms":        "server.sdistance",
	"server.spath_ms":            "server.spath",
	"server.centrality_ms":       "server.centrality",
	"server.stats_ms":            "server.stats",
	"server.toplexes_ms":         "server.toplexes",
	"server.mutate_ms":           "server.mutate",
}

// setLayers fills every per-layer metric: span means from tr, then the
// workload's counters in extra (which win), 0 for anything left.
func setLayers(o *outcome, tr *tracer, extra map[string]float64) {
	sum := tr.summary()
	for _, m := range perLayer {
		v := 0.0
		if sp, ok := spanMetrics[m.name]; ok {
			v = sum[sp].MeanMs()
		}
		if x, ok := extra[m.name]; ok {
			v = x
		}
		o.set(m.name, m.unit, v)
	}
}

// setLatencies reports the end-to-end latency metrics of a run's ops.
func setLatencies(o *outcome, lat []float64) {
	o.set("op_p50_ms", "ms", hdQuantile(lat, 0.50))
	o.set("op_p99_ms", "ms", hdQuantile(lat, 0.99))
}

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 5

// medianSetup runs setup n times and reports the median duration, keeping
// the state of the last run (earlier ones are torn down by the caller's
// teardown func).
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(cur)
		}
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before it.
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	return cur, median(times), nil
}
