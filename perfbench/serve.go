package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/mmio"
	"nwhy/internal/server"
)

// blockKind is one request kind and its count per block.
type blockKind struct {
	kind  string
	count int
	// even places the kind's requests at fixed positions of every block
	// instead of shuffling them with the rest. All even requests share one
	// evenly spaced grid, each kind spread over it, so no two of them are
	// ever adjacent: heavy requests never pile up on the connections in a
	// way that differs from seed to seed.
	even bool
}

// blockMix fixes a traffic composition: every block of requests holds
// exactly count requests of each kind.
type blockMix struct {
	kinds []blockKind
	size  int
}

func newBlockMix(kinds []blockKind) blockMix {
	b := blockMix{kinds: kinds}
	for _, k := range kinds {
		b.size += k.count
	}
	return b
}

func (b blockMix) count(kind string) int {
	for _, k := range b.kinds {
		if k.kind == kind {
			return k.count
		}
	}
	return 0
}

// blockSchedule orders a blockMix's requests with a seed: in block j the
// even kinds keep their fixed positions and the other slots are a seeded
// shuffle.
type blockSchedule struct {
	mix  blockMix
	seed int64
	// slotKind and slotRank give each slot its kind and its rank among
	// that kind's slots.
	slotKind []string
	slotRank []int
	// fixed maps a position to its even-kind slot (-1: shuffled); free
	// lists the shuffled slots.
	fixed []int
	free  []int
	// last caches the most recent block's position → slot map.
	lastBlock int
	last      []int
}

func (b blockMix) schedule(seed int64) *blockSchedule {
	s := &blockSchedule{mix: b, seed: seed, lastBlock: -1, fixed: make([]int, b.size)}
	for i := range s.fixed {
		s.fixed[i] = -1
	}
	// Even slots take grid points in the order of their share of the
	// kind's count, (r+½)/count, so each kind spreads over the block.
	var even []int
	at := map[int]float64{}
	for _, k := range b.kinds {
		for r := 0; r < k.count; r++ {
			slot := len(s.slotKind)
			s.slotKind = append(s.slotKind, k.kind)
			s.slotRank = append(s.slotRank, r)
			if k.even {
				even = append(even, slot)
				at[slot] = (float64(r) + 0.5) / float64(k.count)
			} else {
				s.free = append(s.free, slot)
			}
		}
	}
	sort.SliceStable(even, func(i, j int) bool { return at[even[i]] < at[even[j]] })
	for j, slot := range even {
		s.fixed[j*b.size/len(even)] = slot
	}
	return s
}

// at returns call i's kind and its ordinal among all calls of that kind.
func (s *blockSchedule) at(i int) (string, int) {
	block, pos := i/s.mix.size, i%s.mix.size
	if block != s.lastBlock {
		r := newMix(s.seed, -2-block)
		free := append([]int(nil), s.free...)
		for j := len(free) - 1; j > 0; j-- {
			k := r.intn(j + 1)
			free[j], free[k] = free[k], free[j]
		}
		s.last = make([]int, s.mix.size)
		for p, slot := range s.fixed {
			if slot < 0 {
				slot, free = free[0], free[1:]
			}
			s.last[p] = slot
		}
		s.lastBlock = block
	}
	slot := s.last[pos]
	kind := s.slotKind[slot]
	return kind, block*s.mix.count(kind) + s.slotRank[slot]
}

// mix is a splitmix64 stream: call i of a schedule draws from mix(seed, i),
// so the HTTP run and the in-process replay build identical calls whatever
// order they are issued in.
type mix struct{ x uint64 }

func newMix(seed int64, i int) *mix {
	return &mix{x: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9}
}

func (m *mix) next() uint64 {
	m.x += 0x9e3779b97f4a7c15
	z := m.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *mix) intn(n int) int { return int(m.next() % uint64(n)) }
func (m *mix) float() float64 { return float64(m.next()>>11) / (1 << 53) }

// dataset is one served hypergraph with its reference handle: the generated
// hypergraph wrapped directly, never read back from the snapshot the server
// loads.
type dataset struct {
	name string
	path string
	ref  *nwhy.NWHypergraph
}

// writeDatasets generates the shapes from the seed and writes each as a
// .nwhyb snapshot under dir.
func writeDatasets(cfg config, shapes []shape, dir string, eng *nwhy.Engine) ([]dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []dataset
	for k, sh := range shapes {
		g := nwhy.Wrap(sh.build(inputSeed(cfg.seed, k), cfg.scale)).WithEngine(eng)
		path := filepath.Join(dir, sh.name+mmio.SnapshotExt)
		if err := g.SaveSnapshot(path); err != nil {
			return nil, err
		}
		out = append(out, dataset{name: sh.name, path: path, ref: g})
	}
	return out, nil
}

// refLineGraph builds the reference s-line graph: dense counter, no pruning.
func refLineGraph(ctx context.Context, g *nwhy.NWHypergraph, s int) (*nwhy.SLineGraph, error) {
	return g.SLineGraphCtx(ctx, s, true, nwhy.ConstructOptions{Strategy: nwhy.StrategyDense, Prune: nwhy.PruneNone})
}

// componentSummary is the (count, largest) summary /scc reports.
func componentSummary(labels []uint32) (int, int) {
	sizes := map[uint32]int{}
	largest := 0
	for _, l := range labels {
		sizes[l]++
		largest = max(largest, sizes[l])
	}
	return len(sizes), largest
}

// pathValid reports whether path is an s-walk from src to dst of length
// want in g: consecutive hyperedges share at least s hypernodes.
func pathValid(g *nwhy.NWHypergraph, s int, path []uint32, src, dst, want int) error {
	if want < 0 {
		if len(path) != 0 {
			return fmt.Errorf("path %v between unreachable hyperedges", path)
		}
		return nil
	}
	if len(path) != want+1 || int(path[0]) != src || int(path[len(path)-1]) != dst {
		return fmt.Errorf("path %v, want %d hops from %d to %d", path, want, src, dst)
	}
	for i := 1; i < len(path); i++ {
		if overlap(g.Incidence(int(path[i-1])), g.Incidence(int(path[i]))) < s {
			return fmt.Errorf("path step %d→%d overlaps in fewer than %d nodes", path[i-1], path[i], s)
		}
	}
	return nil
}

func overlap(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func decode[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// The serve-mixed traffic: each block of 400 requests holds exactly these
// counts, in a seeded order, so every run sends the same composition and
// the latency quantiles fall at the same places in it. The uncached kinds
// (cold /slinegraph keys, /scc, /centrality) sit on the even grid.
var mixedBlock = newBlockMix([]blockKind{
	{"sdistance", 220, false},
	{"spath", 106, false},
	{"datasets", 8, false},
	{"stats", 8, false},
	{"toplexes", 8, false},
	{"slinegraph", 32, false},    // hot keys: cache hits
	{"slinegraph-cold", 4, true}, // cold keys: misses
	{"scc", 12, true},
	{"centrality", 2, true},
})

const (
	// hotS is the s of the cached /sdistance and /spath keys.
	hotS = 2
	// centralityS and centralityDataset name the one /centrality key.
	centralityS       = 8
	centralityDataset = "powerlaw"
	// mixedRate is the nominal open-loop rate of serve-mixed (requests/s):
	// a quarter of the knee of the rate ladder in README.md.
	mixedRate = 60
	// slineHot is how many /slinegraph keys are hot: reused often enough
	// that the LRU keeps them. The other keys are visited in a fixed cycle
	// too long for the cache, so each of their requests misses and evicts.
	slineHot = 12
	// pairsPerKey is the size of each hot key's (src, dst) pool.
	pairsPerKey = 32
)

var (
	// sccS are the s values /scc is asked at (uncached: each request runs
	// the pruned kernel).
	sccS = []int{2, 3, 4}
	// slineOpts × slineS × datasets is the /slinegraph key space: 72
	// keys, more than the 64-entry cache holds. Every variant builds the
	// same graph. The first variant holds the hot keys; the others are the
	// cold cycle, two of them on the server's default counter (StrategyAuto),
	// one with no options at all, as a plain /slinegraph request sends.
	slineS    = []int{3, 4, 6, 8}
	slineOpts = []struct {
		query    string
		strategy nwhy.Strategy
		prune    nwhy.Prune
	}{
		{"&strategy=hashmap&prune=none", nwhy.StrategyHashmap, nwhy.PruneNone},
		{"", nwhy.StrategyAuto, nwhy.PruneAuto},
		{"&prune=none", nwhy.StrategyAuto, nwhy.PruneNone},
		{"&strategy=hashmap&prune=degree", nwhy.StrategyHashmap, nwhy.PruneDegree},
		{"&strategy=dense&prune=none", nwhy.StrategyDense, nwhy.PruneNone},
		{"&strategy=dense&prune=degree", nwhy.StrategyDense, nwhy.PruneDegree},
	}
)

// mixedRef holds serve-mixed's reference answers.
type mixedRef struct {
	ds         []dataset
	stats      map[string]core.Stats
	toplexes   map[string]int
	lineEdges  map[string]map[int]int // dataset → s → line edges
	scc        map[string]map[int][2]int
	pairs      map[string][][3]int // dataset → (src, dst, distance) at hotS
	centrality []float64
}

func prepareMixedRef(ctx context.Context, ds []dataset) (*mixedRef, error) {
	r := &mixedRef{
		ds: ds, stats: map[string]core.Stats{}, toplexes: map[string]int{},
		lineEdges: map[string]map[int]int{}, scc: map[string]map[int][2]int{},
		pairs: map[string][][3]int{},
	}
	for k, d := range ds {
		g := d.ref
		r.stats[d.name] = g.Stats()
		tops, err := g.ToplexesCtx(ctx)
		if err != nil {
			return nil, err
		}
		r.toplexes[d.name] = len(tops)
		r.lineEdges[d.name] = map[int]int{}
		for _, s := range append([]int{hotS}, slineS...) {
			lg, err := refLineGraph(ctx, g, s)
			if err != nil {
				return nil, err
			}
			r.lineEdges[d.name][s] = lg.NumEdges()
			if s == hotS {
				// Endpoints come from the largest s-component, so every
				// query walks a real part of the line graph.
				labels, err := g.SConnectedComponentsDirectCtx(ctx, s)
				if err != nil {
					return nil, err
				}
				giant := largestComponent(labels)
				m := newMix(int64(k), -1)
				for p := 0; p < pairsPerKey; p++ {
					src, dst := int(giant[m.intn(len(giant))]), int(giant[m.intn(len(giant))])
					dist, err := lg.SDistanceCtx(ctx, src, dst)
					if err != nil {
						return nil, err
					}
					r.pairs[d.name] = append(r.pairs[d.name], [3]int{src, dst, dist})
				}
			}
			if d.name == centralityDataset && s == centralityS {
				if r.centrality, err = lg.SHarmonicClosenessCentralityCtx(ctx); err != nil {
					return nil, err
				}
			}
		}
		r.scc[d.name] = map[int][2]int{}
		for _, s := range sccS {
			labels, err := g.SConnectedComponentsDirectCtx(ctx, s)
			if err != nil {
				return nil, err
			}
			n, largest := componentSummary(labels)
			r.scc[d.name][s] = [2]int{n, largest}
		}
	}
	return r, nil
}

// largestComponent lists the members of the largest labelled component.
func largestComponent(labels []uint32) []uint32 {
	sizes := map[uint32]int{}
	best := labels[0]
	for _, l := range labels {
		sizes[l]++
		if sizes[l] > sizes[best] {
			best = l
		}
	}
	var out []uint32
	for e, l := range labels {
		if l == best {
			out = append(out, uint32(e))
		}
	}
	return out
}

// slineKey is one /slinegraph cache key.
type slineKey struct {
	dataset int
	s       int
	opt     int
}

// slineKeys enumerates the key space option by option, so the hot keys
// (the first slineHot) and each stretch of the cold cycle cover every
// dataset and s.
func slineKeys(datasets int) []slineKey {
	var keys []slineKey
	for o := range slineOpts {
		for _, s := range slineS {
			for d := 0; d < datasets; d++ {
				keys = append(keys, slineKey{d, s, o})
			}
		}
	}
	return keys
}

// mixedSource builds serve-mixed's calls.
type mixedSource struct {
	block *blockSchedule
	ref   *mixedRef
	// hot are the hot /slinegraph keys, cold the cold cycle: the other
	// keys in a fixed shuffled order (the same for every seed), so any
	// stretch of it mixes datasets, s values and options.
	hot, cold []slineKey
}

func newMixedSource(seed int64, ref *mixedRef) *mixedSource {
	keys := slineKeys(len(ref.ds))
	cold := slices.Clone(keys[slineHot:])
	r := newMix(0, -1<<30)
	for j := len(cold) - 1; j > 0; j-- {
		k := r.intn(j + 1)
		cold[j], cold[k] = cold[k], cold[j]
	}
	return &mixedSource{block: mixedBlock.schedule(seed), ref: ref, hot: keys[:slineHot], cold: cold}
}

func (m *mixedSource) finish(*call) {}

func (m *mixedSource) build(i int) *call {
	kind, nth := m.block.at(i)
	ds := m.ref.ds
	d := ds[nth%len(ds)]
	g := d.ref
	c := &call{kind: kind, method: "GET"}
	switch kind {
	case "sdistance", "spath":
		p := m.ref.pairs[d.name][(nth/len(ds))%pairsPerKey]
		src, dst, want := p[0], p[1], p[2]
		c.url = fmt.Sprintf("/%s?dataset=%s&s=%d&src=%d&dst=%d", kind, d.name, hotS, src, dst)
		req := server.SDistanceRequest{Dataset: d.name, S: hotS, Src: src, Dst: dst}
		if kind == "sdistance" {
			c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SDistance(ctx, req) }
			c.check = func(b []byte) error {
				got, err := decode[server.SDistanceResult](b)
				if err != nil {
					return err
				}
				if int(got.Distance) != want || got.Reachable != (want >= 0) {
					return fmt.Errorf("distance %v (reachable %v), want %d", got.Distance, got.Reachable, want)
				}
				return nil
			}
		} else {
			c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SPath(ctx, req) }
			c.check = func(b []byte) error {
				got, err := decode[server.SPathResult](b)
				if err != nil {
					return err
				}
				return pathValid(g, hotS, got.Path, src, dst, want)
			}
		}
	case "scc":
		s := sccS[(nth/len(ds))%len(sccS)]
		want := m.ref.scc[d.name][s]
		c.url = fmt.Sprintf("/scc?dataset=%s&s=%d", d.name, s)
		req := server.SCCRequest{Dataset: d.name, S: s}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SComponents(ctx, req) }
		c.check = func(b []byte) error {
			got, err := decode[server.SCCResult](b)
			if err != nil {
				return err
			}
			if got.NumComponents != want[0] || got.LargestSize != want[1] {
				return fmt.Errorf("%d components (largest %d), want %v", got.NumComponents, got.LargestSize, want)
			}
			return nil
		}
	case "slinegraph", "slinegraph-cold":
		c.kind = "slinegraph"
		key := m.hot[nth%len(m.hot)]
		if kind == "slinegraph-cold" {
			key = m.cold[nth%len(m.cold)]
		}
		d = ds[key.dataset]
		g = d.ref
		s, opt := key.s, slineOpts[key.opt]
		want := m.ref.lineEdges[d.name][s]
		c.url = fmt.Sprintf("/slinegraph?dataset=%s&s=%d%s", d.name, s, opt.query)
		req := server.SLineRequest{Dataset: d.name, S: s, Edges: true, Strategy: opt.strategy, Prune: opt.prune}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SLine(ctx, req) }
		c.check = func(b []byte) error {
			got, err := decode[server.SLineResult](b)
			if err != nil {
				return err
			}
			if got.NumEdges != want || got.NumVertices != g.NumEdges() {
				return fmt.Errorf("%d line edges over %d vertices, want %d over %d", got.NumEdges, got.NumVertices, want, g.NumEdges())
			}
			return nil
		}
	case "stats":
		want := m.ref.stats[d.name]
		c.url = "/stats?dataset=" + d.name
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.Stats(ctx, d.name) }
		c.check = func(b []byte) error {
			got, err := decode[server.StatsResult](b)
			if err != nil {
				return err
			}
			if got.Stats != want {
				return fmt.Errorf("stats %+v, want %+v", got.Stats, want)
			}
			return nil
		}
	case "datasets":
		c.url = "/datasets"
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.Datasets(ctx) }
		c.check = func(b []byte) error {
			got, err := decode[[]server.DatasetInfo](b)
			if err != nil {
				return err
			}
			if len(got) != len(m.ref.ds) {
				return fmt.Errorf("%d datasets, want %d", len(got), len(m.ref.ds))
			}
			for _, info := range got {
				st, ok := m.ref.stats[info.Name]
				if !ok || info.NumEdges != st.NumEdges || info.NumNodes != st.NumNodes {
					return fmt.Errorf("dataset %+v does not match the reference", info)
				}
			}
			return nil
		}
	case "toplexes":
		want := m.ref.toplexes[d.name]
		c.url = "/toplexes?dataset=" + d.name
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.Toplexes(ctx, d.name) }
		c.check = func(b []byte) error {
			got, err := decode[server.ToplexesResult](b)
			if err != nil {
				return err
			}
			if got.Count != want || len(got.Toplexes) != want {
				return fmt.Errorf("%d toplexes, want %d", got.Count, want)
			}
			return nil
		}
	case "centrality":
		want := m.ref.centrality
		c.url = fmt.Sprintf("/centrality?dataset=%s&s=%d&kind=harmonic", centralityDataset, centralityS)
		req := server.CentralityRequest{Dataset: centralityDataset, S: centralityS, Kind: server.CentralityHarmonic}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.Centrality(ctx, req) }
		c.check = func(b []byte) error {
			got, err := decode[server.CentralityResult](b)
			if err != nil {
				return err
			}
			if len(got.Scores) != len(want) {
				return fmt.Errorf("%d scores, want %d", len(got.Scores), len(want))
			}
			for i := range want {
				if math.Abs(got.Scores[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
					return fmt.Errorf("score[%d] = %v, want %v", i, got.Scores[i], want[i])
				}
			}
			return nil
		}
	}
	return c
}

// checkCalls verifies every call of a phase, recording failures.
func checkCalls(out *outcome, calls []*call) {
	for _, c := range calls {
		out.attempted++
		if c.failed() {
			out.fail("%s %s: %v", c.method, c.url, c.statusErr())
			continue
		}
		if c.check != nil {
			if err := c.check(c.resp); err != nil {
				out.fail("%s %s: %v", c.method, c.url, err)
			}
		}
	}
}

// warmMixed is serve-mixed's cache warm-up: the hot /sdistance and
// /slinegraph keys, the /centrality key and every dataset's toplexes.
func warmMixed(ctx context.Context, s *served, ds []dataset) error {
	var urls []string
	for _, d := range ds {
		urls = append(urls,
			fmt.Sprintf("/sdistance?dataset=%s&s=%d&src=0&dst=0", d.name, hotS),
			"/toplexes?dataset="+d.name)
	}
	for _, k := range slineKeys(len(ds))[:slineHot] {
		urls = append(urls, fmt.Sprintf("/slinegraph?dataset=%s&s=%d%s", ds[k.dataset].name, k.s, slineOpts[k.opt].query))
	}
	urls = append(urls, fmt.Sprintf("/centrality?dataset=%s&s=%d&kind=harmonic", centralityDataset, centralityS))
	for _, u := range urls {
		c := &call{method: "GET", url: u}
		s.do(ctx, c)
		if c.failed() {
			return fmt.Errorf("warm-up %s: %w", u, c.statusErr())
		}
	}
	return nil
}

// setupServers starts n servers over dir, each warm-started and warmed
// up, and reports the median set-up time. It keeps the last keep servers
// running and closes the others.
func setupServers(ctx context.Context, n, keep int, dir string, warm func(*served) error) ([]*served, float64, error) {
	var (
		all   []*served
		times []float64
	)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := startServer(ctx, dir)
		if err == nil {
			err = warm(s)
		}
		if err != nil {
			for _, x := range all {
				x.close()
			}
			if s != nil {
				s.close()
			}
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		all = append(all, s)
		if len(all) > keep {
			all[0].close()
			all = all[1:]
		}
	}
	return all, median(times), nil
}

// replayOverhead runs the first n calls of a fresh source twice through
// the in-process Server methods, on two identically set-up servers: once
// untraced and once traced. It returns the tracing overhead in percent.
func replayOverhead(ctx context.Context, a, b *server.Server, newSrc func() source, n int, tr *tracer) (float64, error) {
	plain, err := replay(ctx, a, newSrc(), n, nil, 0)
	if err != nil {
		return 0, err
	}
	traced, err := replay(ctx, b, newSrc(), n, tr, 1<<32)
	if err != nil {
		return 0, err
	}
	return (traced.Seconds()/plain.Seconds() - 1) * 100, nil
}

// coldLoads times what WarmStart and the first /toplexes do per dataset:
// the snapshot decode and a cold toplex computation.
func coldLoads(ctx context.Context, eng *nwhy.Engine, ds []dataset, tr *tracer) error {
	for i, d := range ds {
		op := int64(1<<40 + i)
		var (
			snap *mmio.Snapshot
			err  error
		)
		tr.timed("mmio.snapshot_load", 0, op, func() { snap, err = mmio.LoadSnapshot(eng, d.path) })
		if err != nil {
			return err
		}
		g := nwhy.Wrap(core.FromIncidenceCSR(snap.CSR)).WithEngine(eng)
		tr.timed("core.toplex", 0, op, func() { _, err = g.ToplexesCtx(ctx) })
		if err != nil {
			return err
		}
	}
	return nil
}

// mixedLayers times the facade calls behind serve-mixed's endpoints on the
// server's own dataset handles: the s-line construction of every cold
// /slinegraph key with that key's options (the builds its cache misses
// run), the pruned s-CC per /scc key, and the s-distance and centrality
// queries on line graphs built outside any span.
func mixedLayers(ctx context.Context, srv *server.Server, ref *mixedRef, tr *tracer) error {
	op := int64(1 << 41)
	for _, k := range slineKeys(len(ref.ds))[slineHot:] {
		g, err := srv.Registry().Get(ref.ds[k.dataset].name)
		if err != nil {
			return err
		}
		op++
		opt := slineOpts[k.opt]
		tr.timed("slinegraph.construct", 0, op, func() {
			_, err = g.SLineGraphCtx(ctx, k.s, true, nwhy.ConstructOptions{Strategy: opt.strategy, Prune: opt.prune})
		})
		if err != nil {
			return err
		}
	}
	for _, d := range ref.ds {
		g, err := srv.Registry().Get(d.name)
		if err != nil {
			return err
		}
		op++
		lg, err := g.SLineGraphCtx(ctx, hotS, true, nwhy.ConstructOptions{})
		if err != nil {
			return err
		}
		for _, p := range ref.pairs[d.name] {
			tr.timed("smetrics.sdistance", 0, op, func() { _, err = lg.SDistanceCtx(ctx, p[0], p[1]) })
			if err != nil {
				return err
			}
		}
		if d.name == centralityDataset {
			if lg, err = g.SLineGraphCtx(ctx, centralityS, true, nwhy.ConstructOptions{}); err != nil {
				return err
			}
			tr.timed("smetrics.centrality", 0, op, func() { _, err = lg.SHarmonicClosenessCentralityCtx(ctx) })
			if err != nil {
				return err
			}
		}
		for _, s := range sccS {
			op++
			tr.timed("slinegraph.scc", 0, op, func() { _, err = g.SConnectedComponentsPrunedCtx(ctx, s, nwhy.PruneAuto) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replayCalls is how many calls of the schedule the traced in-process
// replay runs per pass.
const replayCalls = 300

// runServeMixed is the serve-mixed workload: an open loop of reads at a
// fixed rate over loopback HTTP, then a single closed-loop caller for the
// latency and throughput figures.
func runServeMixed(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	ref := nwhy.NewEngine(0)
	defer ref.Close()
	dir := filepath.Join(cfg.dir, "data")
	ds, err := writeDatasets(cfg, serveShapes, dir, ref)
	if err != nil {
		return nil, err
	}
	want, err := prepareMixedRef(ctx, ds)
	if err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	newSrc := func() source { return newMixedSource(cfg.seed, want) }
	warm := func(s *served) error { return warmMixed(ctx, s, ds) }
	return runServe(ctx, cfg, tr, dir, newSrc, mixedBlock.size, warm, mixedRate, func(srvs []*served, extra map[string]float64) error {
		if err := coldLoads(ctx, ref, ds, tr); err != nil {
			return err
		}
		return mixedLayers(ctx, srvs[0].srv, want, tr)
	})
}

// openShare is the share of a serving run given to the open loop; the
// closed loop takes the rest.
//
// The end-to-end latencies come from the closed loop. At the nominal rates
// the server is idle most of the time, so an open-loop request usually
// starts on an idle vCPU, and on a shared host how long that vCPU takes to
// wake moves with the neighbours' load; a closed loop keeps it busy
// (README.md). The open loop's latencies stay in the traced run as
// loadgen.open_p50_ms and loadgen.open_p99_ms.
const openShare = 0.4

// runServe is the measurement shared by both serving workloads: set up
// setupRuns servers (median set-up time), run the open loop at rate and then
// the closed loop on the last one, check every answer, and in a traced run
// replay the schedule in-process on the other two.
func runServe(ctx context.Context, cfg config, tr *tracer, dir string, newSrc func() source, blockSize int, warm func(*served) error,
	rate float64, layers func([]*served, map[string]float64) error) (*outcome, error) {
	base := liveHeapBytes()
	keep := 1
	if tr != nil {
		keep = 3 // two spares for the untraced and traced replays
	}
	srvs, setup, err := setupServers(ctx, setupRuns, keep, dir, warm)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		for _, x := range srvs {
			x.close()
		}
	}()
	s := srvs[len(srvs)-1]

	src := newSrc()
	cp, _ := src.(checkpointer)
	rate *= cfg.scale
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	dues := jitteredDues(cfg.seed, rate, cfg.phase(openShare))
	before := counters(s.srv)
	open := s.openLoop(ctx, src, dues)
	after := counters(s.srv)
	if cp != nil {
		cp.checkpoint(ctx, s)
	}
	// Latency and allocation are measured on the single-caller closed loop,
	// whose op order (and so which reads rebuild what) does not depend on
	// timing.
	a0 := allocBytes()
	closed := s.closedLoop(ctx, src, blockAlign(len(dues), blockSize), cfg.phase(1-openShare))
	allocs := allocBytes() - a0
	if cp != nil {
		cp.checkpoint(ctx, s)
	}
	if len(open.calls) == 0 || len(closed.calls) == 0 {
		return nil, fmt.Errorf("a load phase sent no request")
	}

	open.report(os.Stderr, "open")
	closed.report(os.Stderr, "closed")
	out := &outcome{}
	checkCalls(out, open.calls)
	checkCalls(out, closed.calls)
	if v, ok := src.(verifier); ok {
		v.verify(ctx, out, tr)
	}
	if tr == nil {
		out.set("setup_s", "s", setup)
		setLatencies(out, closed.latencies(false))
		out.set("ops_per_s", "1/s", closed.throughput(blockSize))
		out.set("alloc_mb_per_op", "MB", float64(allocs)/mb/float64(len(closed.calls)))
		open, closed, src, cp = phase{}, phase{}, nil, nil
		out.set("live_heap_mb", "MB", (float64(liveHeapBytes())-float64(base))/mb)
		return out, nil
	}
	extra := map[string]float64{}
	httpLayers(extra, open, before, after)
	extra["loadgen.open_p50_ms"] = hdQuantile(open.latencies(false), 0.5)
	extra["loadgen.open_p99_ms"] = hdQuantile(open.latencies(false), 0.99)
	if v, ok := src.(writer); ok {
		extra["loadgen.write_p50_ms"] = quantile(open.latencies(true), 0.5)
		extra["loadgen.write_p99_ms"] = quantile(open.latencies(true), 0.99)
		v.layers(extra)
	}
	n := min(replayCalls, len(dues))
	if extra["trace.overhead_pct"], err = replayOverhead(ctx, srvs[0].srv, srvs[1].srv, newSrc, n, tr); err != nil {
		return nil, err
	}
	if err := layers(srvs, extra); err != nil {
		return nil, err
	}
	extra["loadgen.error_rate"] = float64(out.failed) / float64(out.attempted)
	setLayers(out, tr, extra)
	return out, nil
}

// verifier is a source with answers that can only be checked after the
// run (serve-mutate's epoch-dependent reads).
type verifier interface {
	verify(ctx context.Context, out *outcome, tr *tracer)
}

// checkpointer is a source that reads every answer once after each load
// phase, while no request is in flight.
type checkpointer interface {
	checkpoint(ctx context.Context, s *served)
}

// writer is a source that sends writes and reports their layer counters.
type writer interface {
	layers(extra map[string]float64)
}
