package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/mmio"
	"nwhy/internal/slinegraph"
	"nwhy/internal/sparse"
)

// batchJob is one file→answer job: an input file and the s it is asked at.
type batchJob struct {
	shape string
	path  string
	bytes int64
	s     int
	ref   jobAnswer
	// pairBound is Σ_v C(d_v, 2) over the input's hypernodes, the number
	// of hyperedge pairs the s-overlap kernel could at most emit.
	pairBound float64
}

// jobAnswer is everything a job computes that the reference checks.
type jobAnswer struct {
	stats      core.Stats
	components int
	reached    int
	lineEdges  int
	lgLabels   []uint32 // canonical s-components via the line graph
	pruned     []uint32 // canonical s-components via the pruned kernel
}

// canonical renumbers a labelling by first occurrence, so two labellings of
// the same partition compare equal whatever label values they use.
func canonical(labels []uint32) []uint32 {
	ids := map[uint32]uint32{}
	out := make([]uint32, len(labels))
	for i, l := range labels {
		c, ok := ids[l]
		if !ok {
			c = uint32(len(ids))
			ids[l] = c
		}
		out[i] = c
	}
	return out
}

func maxDegreeEdge(g *nwhy.NWHypergraph) int {
	best := 0
	for e := 1; e < g.NumEdges(); e++ {
		if g.EdgeDegree(e) > g.EdgeDegree(best) {
			best = e
		}
	}
	return best
}

var batchS = []int{2, 8}

// prepareBatch writes the seeded .mtx inputs and computes every job's
// reference answer on an independent path: the generated hypergraph held in
// memory (no file parse), the unpruned dense construction, and the direct
// union-find s-CC kernel.
func prepareBatch(ctx context.Context, cfg config, eng *nwhy.Engine) ([]batchJob, error) {
	var jobs []batchJob
	for k, sh := range batchShapes {
		h := sh.build(inputSeed(cfg.seed, k), cfg.scale)
		g := nwhy.Wrap(h).WithEngine(eng)
		path := filepath.Join(cfg.dir, sh.name+".mtx")
		if err := g.Save(path); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		cc, err := g.ConnectedComponentsCtx(ctx, nwhy.CCHyper)
		if err != nil {
			return nil, err
		}
		bfs, err := g.BFSCtx(ctx, maxDegreeEdge(g), nwhy.BFSTopDown)
		if err != nil {
			return nil, err
		}
		bound := 0.0
		for v := 0; v < g.NumNodes(); v++ {
			d := float64(g.NodeDegree(v))
			bound += d * (d - 1) / 2
		}
		for _, s := range batchS {
			lg, err := g.SLineGraphCtx(ctx, s, true, nwhy.ConstructOptions{Strategy: nwhy.StrategyDense, Prune: nwhy.PruneNone})
			if err != nil {
				return nil, err
			}
			direct, err := g.SConnectedComponentsDirectCtx(ctx, s)
			if err != nil {
				return nil, err
			}
			want := canonical(direct)
			jobs = append(jobs, batchJob{
				shape: sh.name, path: path, bytes: fi.Size(), s: s, pairBound: bound,
				ref: jobAnswer{
					stats: g.Stats(), components: cc.NumComponents(), reached: bfs.ReachedEdges(),
					lineEdges: lg.NumEdges(), lgLabels: want, pruned: want,
				},
			})
		}
	}
	return jobs, nil
}

// check compares a job's answer with its reference.
func (j batchJob) check(got jobAnswer) error {
	r := j.ref
	switch {
	case got.stats != r.stats:
		return fmt.Errorf("stats %+v, want %+v", got.stats, r.stats)
	case got.components != r.components:
		return fmt.Errorf("%d components, want %d", got.components, r.components)
	case got.reached != r.reached:
		return fmt.Errorf("BFS reached %d hyperedges, want %d", got.reached, r.reached)
	case got.lineEdges != r.lineEdges:
		return fmt.Errorf("%d line edges, want %d", got.lineEdges, r.lineEdges)
	case !slices.Equal(got.lgLabels, r.lgLabels):
		return fmt.Errorf("line-graph s-components differ from the direct kernel")
	case !slices.Equal(got.pruned, r.pruned):
		return fmt.Errorf("pruned s-components differ from the direct kernel")
	}
	return nil
}

// jobState holds a job's live results, so the caller can measure what a
// user holding them keeps on the heap.
type jobState struct {
	g      *nwhy.NWHypergraph
	lg     *nwhy.SLineGraph
	answer jobAnswer
}

// runJob is the file→answer path: load, statistics, connected components,
// BFS from the max-degree hyperedge, the s-line graph with default options,
// its s-components, and the pruned s-components. With a tracer each public
// call runs in its own span, and the load is split into its layers (parse,
// dedup, CSR build) exactly as LoadFile composes them.
func runJob(ctx context.Context, eng *nwhy.Engine, j batchJob, tr *tracer, op int64, lay *batchLayers) (jobState, error) {
	var st jobState
	var err error
	root := tr.begin("job", 0, op)
	defer tr.end(root)
	if tr == nil {
		st.g, err = nwhy.LoadFile(j.path, nwhy.LoadOptions{Engine: eng})
	} else {
		st.g, err = tracedLoad(eng, j, tr, root, op, lay)
	}
	if err != nil {
		return st, err
	}
	g := st.g
	tr.timed("core.stats", root, op, func() { st.answer.stats = g.Stats() })
	var cc *core.HyperCCResult
	tr.timed("core.cc", root, op, func() { cc, err = g.ConnectedComponentsCtx(ctx, nwhy.CCHyper) })
	if err != nil {
		return st, err
	}
	st.answer.components = cc.NumComponents()
	src := maxDegreeEdge(g)
	var bfs *core.HyperBFSResult
	tr.timed("core.bfs", root, op, func() { bfs, err = g.BFSCtx(ctx, src, nwhy.BFSTopDown) })
	if err != nil {
		return st, err
	}
	st.answer.reached = bfs.ReachedEdges()
	a0 := allocBytes()
	tr.timed("slinegraph.construct", root, op, func() {
		st.lg, err = g.SLineGraphCtx(ctx, j.s, true, nwhy.ConstructOptions{})
	})
	if err != nil {
		return st, err
	}
	if lay != nil {
		lay.constructAlloc += float64(allocBytes() - a0)
		lay.constructs++
		lay.lineEdges += float64(st.lg.NumEdges())
		lay.pairBound += j.pairBound
	}
	st.answer.lineEdges = st.lg.NumEdges()
	var labels []uint32
	tr.timed("smetrics.lg_cc", root, op, func() { labels, err = st.lg.SConnectedComponentsCtx(ctx) })
	if err != nil {
		return st, err
	}
	st.answer.lgLabels = canonical(labels)
	tr.timed("slinegraph.scc", root, op, func() { labels, err = g.SConnectedComponentsPrunedCtx(ctx, j.s, nwhy.PruneAuto) })
	if err != nil {
		return st, err
	}
	st.answer.pruned = canonical(labels)
	return st, nil
}

// tracedLoad is LoadFile's Matrix Market path with a span per layer. It
// must stay the same sequence of calls as nwhy.LoadFile in nwhy.go (parse,
// dedup, CSR build), so traced and untraced cycles do the same work;
// TestTracedLoadMatchesLoadFile pins the two to the same result.
func tracedLoad(eng *nwhy.Engine, j batchJob, tr *tracer, parent, op int64, lay *batchLayers) (*nwhy.NWHypergraph, error) {
	id := tr.begin("nwhy.load", parent, op)
	defer tr.end(id)
	var (
		bel *sparse.BiEdgeList
		h   *core.Hypergraph
		err error
	)
	d := tr.timed("mmio.parse", id, op, func() { bel, err = mmio.GraphReaderParallel(eng, j.path) })
	if err != nil {
		return nil, err
	}
	lay.parseBytes += float64(j.bytes)
	lay.parseSec += d.Seconds()
	tr.timed("sparse.dedup", id, op, func() { err = bel.DedupOn(eng) })
	if err != nil {
		return nil, err
	}
	tr.timed("core.build", id, op, func() { h = core.FromBiEdgeList(bel) })
	return nwhy.Wrap(h).WithEngine(eng), nil
}

// batchLayers accumulates the batch workload's traced counters.
type batchLayers struct {
	parseBytes, parseSec         float64
	constructAlloc, constructs   float64
	lineEdges, pairBound         float64
	tracedJobSec, untracedJobSec float64
	tracedJobs, untracedJobs     int
}

// runBatch is the batch-file2answer workload: one caller runs file→answer
// jobs back to back (a closed loop), cycling through every (input, s).
func runBatch(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	ref := nwhy.NewEngine(0)
	defer ref.Close()
	jobs, err := prepareBatch(ctx, cfg, ref)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	out := &outcome{}

	// Set-up is the engine plus one warm-up job (the cold first call pays
	// arena growth and page faults), repeated to report a median.
	eng, setup, err := medianSetup(setupRuns, func() (*nwhy.Engine, error) {
		e := nwhy.NewEngine(0)
		_, err := runJob(ctx, e, jobs[0], nil, 0, nil)
		return e, err
	}, func(e *nwhy.Engine) { e.Close() })
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	lay := &batchLayers{}
	var lat []float64
	byJob := map[string][]float64{}
	base := liveHeapBytes()
	a0 := allocBytes()
	start := time.Now()
	limit := cfg.phase(1)
	// Whole cycles only, so every (input, s) pair weighs the same in the
	// latency distribution.
	for cycle := 0; time.Since(start) < limit; cycle++ {
		traced := tr != nil && cycle%2 == 1
		for _, j := range jobs {
			op := int64(len(lat) + 1)
			t0 := time.Now()
			var st jobState
			if traced {
				st, err = runJob(ctx, eng, j, tr, op, lay)
			} else {
				st, err = runJob(ctx, eng, j, nil, op, nil)
			}
			d := time.Since(t0)
			out.attempted++
			if err != nil {
				out.fail("%s s=%d: %v", j.shape, j.s, err)
				continue
			}
			if err := j.check(st.answer); err != nil {
				out.fail("%s s=%d: %v", j.shape, j.s, err)
				continue
			}
			lat = append(lat, ms(d))
			key := fmt.Sprintf("%s s=%d", j.shape, j.s)
			byJob[key] = append(byJob[key], ms(d))
			if traced {
				lay.tracedJobSec += d.Seconds()
				lay.tracedJobs++
				// Outside the job's time, which untraced cycles must match.
				tr.timed("slinegraph.degree_stats", 0, op, func() {
					slinegraph.ComputeDegreeStats(eng, slinegraph.FromHypergraph(st.g.Hypergraph()))
				})
			} else {
				lay.untracedJobSec += d.Seconds()
				lay.untracedJobs++
			}
		}
	}
	elapsed := time.Since(start)
	allocs := allocBytes() - a0
	for _, k := range slices.Sorted(maps.Keys(byJob)) {
		v := byJob[k]
		fmt.Fprintf(os.Stderr, "perfbench: job %-22s n=%-4d p50=%.1fms p90=%.1fms\n", k, len(v), quantile(v, 0.5), quantile(v, 0.9))
	}

	if tr == nil {
		// Live heap: what a user holding one job's handle, line graph and
		// labels keeps, for the largest of the s=2 jobs.
		live := 0.0
		for _, j := range jobs {
			if j.s != batchS[0] {
				continue
			}
			st, err := runJob(ctx, eng, j, nil, 0, nil)
			if err != nil {
				return nil, err
			}
			live = max(live, float64(liveHeapBytes())-float64(base))
			runtime.KeepAlive(st)
		}
		out.set("setup_s", "s", setup)
		setLatencies(out, lat)
		out.set("ops_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
		out.set("alloc_mb_per_op", "MB", float64(allocs)/mb/float64(out.attempted))
		out.set("live_heap_mb", "MB", live/mb)
		return out, nil
	}
	extra := map[string]float64{"loadgen.error_rate": float64(out.failed) / float64(out.attempted)}
	if lay.parseSec > 0 {
		extra["mmio.parse_mb_per_s"] = lay.parseBytes / mb / lay.parseSec
	}
	if lay.constructs > 0 {
		extra["slinegraph.construct_alloc_mb"] = lay.constructAlloc / mb / lay.constructs
		extra["slinegraph.line_edges"] = lay.lineEdges / lay.constructs
	}
	if lay.pairBound > 0 {
		extra["slinegraph.yield"] = lay.lineEdges / lay.pairBound
	}
	if lay.tracedJobs > 0 && lay.untracedJobs > 0 {
		tm := lay.tracedJobSec / float64(lay.tracedJobs)
		um := lay.untracedJobSec / float64(lay.untracedJobs)
		extra["trace.overhead_pct"] = (tm/um - 1) * 100
	}
	setLayers(out, tr, extra)
	return out, nil
}
