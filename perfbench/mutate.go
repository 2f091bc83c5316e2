package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"nwhy"
	"nwhy/internal/server"
)

// The serve-mutate traffic: one dataset, writes beside reads, in blocks of
// exactly these counts. Writes sit every tenth request, so each epoch is
// read the same number of times whatever the seed. The counts put the
// median request among the cached /sdistance reads, not on the boundary
// between two kinds (README.md).
var mutateBlock = newBlockMix([]blockKind{
	{"mutate", 10, true},
	{"scc-incremental", 20, false},
	{"scc", 5, false},
	{"slinegraph", 25, false},
	{"sdistance", 40, false},
})

const (
	// mutateS is the s of every serve-mutate read.
	mutateS = 2
	// mutateRate is serve-mutate's open-loop rate (requests/s): a quarter
	// of the knee of the rate ladder in README.md.
	mutateRate = 40
	// insertBatch is the hyperedge count of one insert batch; every
	// removeEvery-th write removes every acknowledged inserted hyperedge
	// instead, which keeps the dataset's size steady and forces the
	// full-recompute paths.
	insertBatch = 8
	removeEvery = 5
	// mutatePairs is the size of the /sdistance (src, dst) pool, drawn
	// from the original hyperedges (never removed).
	mutatePairs = 64
)

// writeRec is one accepted write, as the server acknowledged it.
type writeRec struct {
	epoch uint64
	ops   []server.EdgeOp
	added []uint32
}

// readRec is one read whose answer depends on the epoch it observed.
type readRec struct {
	c        *call
	what     string // "scc", "sline" or "sdist"
	src, dst int
}

// checkpoint is a set of reads made while no write was in flight, at a
// known epoch.
type checkpoint struct {
	epoch uint64
	reads []readRec
}

// epochAnswer is what reads should see at one epoch.
type epochAnswer struct {
	scc       [2]int
	lineEdges int
	dist      map[[2]int]int
}

// mutateSource builds serve-mutate's calls and keeps the write log.
type mutateSource struct {
	seed  int64
	block *blockSchedule
	ds    dataset
	edges int // original hyperedge count: /sdistance endpoints stay valid
	nodes int
	pairs [][2]int
	// epoch0 is the dataset's epoch before the first write: 0, as both the
	// warm-started server handle and the reference handle start there.
	epoch0 uint64

	writesSent int
	acked      uint64
	live       []uint32
	log        []writeRec
	reads      []readRec
	checks     []checkpoint

	// layer counters filled by verify
	patched, refreshes  int
	incrementals, fulls int
}

func newMutateSource(seed int64, ds dataset, edges, nodes int) *mutateSource {
	m := &mutateSource{seed: seed, block: mutateBlock.schedule(seed), ds: ds, edges: edges, nodes: nodes}
	r := newMix(seed, -1)
	for i := 0; i < mutatePairs; i++ {
		m.pairs = append(m.pairs, [2]int{r.intn(m.edges), r.intn(m.edges)})
	}
	return m
}

func (m *mutateSource) build(i int) *call {
	kind, nth := m.block.at(i)
	name := m.ds.name
	c := &call{method: "GET", lo: m.acked}
	switch kind {
	case "mutate":
		var ops []server.EdgeOp
		if nth%removeEvery == removeEvery-1 && len(m.live) > 0 {
			for _, id := range m.live {
				ops = append(ops, server.EdgeOp{Op: "remove", ID: id})
			}
			m.live = nil
		} else {
			for k := 0; k < insertBatch; k++ {
				ops = append(ops, server.EdgeOp{Op: "add", Members: m.members(newMix(m.seed, i*insertBatch+k))})
			}
		}
		m.writesSent++
		body, _ := json.Marshal(map[string]any{"dataset": name, "ops": ops, "commit": true})
		c.kind, c.write, c.method, c.url, c.body = "mutate", true, "POST", "/mutate", body
		req := server.MutateRequest{Dataset: name, Ops: ops, Commit: true}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.Mutate(ctx, req) }
	case "scc-incremental", "scc":
		inc := kind == "scc-incremental"
		c.kind = "scc"
		c.url = fmt.Sprintf("/scc?dataset=%s&s=%d&incremental=%v", name, mutateS, inc)
		req := server.SCCRequest{Dataset: name, S: mutateS, Incremental: inc}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SComponents(ctx, req) }
		m.reads = append(m.reads, readRec{c: c, what: "scc"})
	case "slinegraph":
		c.kind = kind
		c.url = fmt.Sprintf("/slinegraph?dataset=%s&s=%d", name, mutateS)
		req := server.SLineRequest{Dataset: name, S: mutateS, Edges: true}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SLine(ctx, req) }
		m.reads = append(m.reads, readRec{c: c, what: "sline"})
	case "sdistance":
		p := m.pairs[nth%len(m.pairs)]
		c.kind = kind
		c.url = fmt.Sprintf("/sdistance?dataset=%s&s=%d&src=%d&dst=%d", name, mutateS, p[0], p[1])
		req := server.SDistanceRequest{Dataset: name, S: mutateS, Src: p[0], Dst: p[1]}
		c.direct = func(ctx context.Context, s *server.Server) (any, error) { return s.SDistance(ctx, req) }
		m.reads = append(m.reads, readRec{c: c, what: "sdist", src: p[0], dst: p[1]})
	}
	return c
}

// members draws a new hyperedge's hypernodes, skewed toward low IDs like
// the community generator's membership.
func (m *mutateSource) members(r *mix) []uint32 {
	size := 2 + r.intn(9)
	seen := map[uint32]bool{}
	for len(seen) < size {
		u := r.float()
		seen[uint32(float64(m.nodes)*u*u)] = true
	}
	out := make([]uint32, 0, size)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (m *mutateSource) finish(c *call) {
	if !c.write {
		c.hi = m.epoch0 + uint64(m.writesSent)
		return
	}
	if c.failed() {
		return
	}
	res, ok := c.result.(server.MutateResult)
	if !ok {
		var err error
		if res, err = decode[server.MutateResult](c.resp); err != nil {
			c.err = fmt.Errorf("decoding /mutate response: %w", err)
			return
		}
	}
	var req struct {
		Ops []server.EdgeOp `json:"ops"`
	}
	if c.body != nil {
		_ = json.Unmarshal(c.body, &req)
	}
	m.log = append(m.log, writeRec{epoch: res.Epoch, ops: req.Ops, added: res.Added})
	m.live = append(m.live, res.Added...)
	m.acked = max(m.acked, res.Epoch)
}

// checkpoint reads every answer once while nothing is in flight.
func (m *mutateSource) checkpoint(ctx context.Context, s *served) {
	cp := checkpoint{epoch: m.acked}
	name := m.ds.name
	add := func(what, url string, src, dst int) {
		c := &call{kind: what, method: "GET", url: url}
		s.do(ctx, c)
		cp.reads = append(cp.reads, readRec{c: c, what: what, src: src, dst: dst})
	}
	add("scc", fmt.Sprintf("/scc?dataset=%s&s=%d&incremental=true", name, mutateS), 0, 0)
	add("scc", fmt.Sprintf("/scc?dataset=%s&s=%d", name, mutateS), 0, 0)
	add("scc", fmt.Sprintf("/scc?dataset=%s&s=%d&direct=true", name, mutateS), 0, 0)
	add("sline", fmt.Sprintf("/slinegraph?dataset=%s&s=%d", name, mutateS), 0, 0)
	for _, p := range m.pairs {
		add("sdist", fmt.Sprintf("/sdistance?dataset=%s&s=%d&src=%d&dst=%d", name, mutateS, p[0], p[1]), p[0], p[1])
	}
	m.checks = append(m.checks, cp)
}

// verify replays the acknowledged writes, in commit order, on a mirror of
// the dataset (the generated hypergraph, never the server's handle) and
// checks every read against the answers at the epochs it could have
// observed. Checkpoint reads are checked exactly, against the unpruned
// construction and the direct s-CC kernel at the checkpoint's epoch.
func (m *mutateSource) verify(ctx context.Context, out *outcome, tr *tracer) {
	sort.Slice(m.log, func(i, j int) bool { return m.log[i].epoch < m.log[j].epoch })
	for k, w := range m.log {
		if w.epoch != m.epoch0+uint64(k)+1 {
			out.attempted++
			out.fail("write log: commit %d has epoch %d, want %d", k, w.epoch, m.epoch0+uint64(k)+1)
			return
		}
	}
	// Which (src, dst) pairs each epoch must answer.
	needPairs := make([]map[[2]int]bool, len(m.log)+1)
	for i := range needPairs {
		needPairs[i] = map[[2]int]bool{}
	}
	for _, r := range m.reads {
		if r.what != "sdist" || r.c.failed() {
			continue
		}
		lo, hi := m.span(r.c)
		for k := lo; k <= hi; k++ {
			needPairs[k][[2]int{r.src, r.dst}] = true
		}
	}
	checkAt := map[int][]checkpoint{}
	for _, cp := range m.checks {
		k := int(cp.epoch - m.epoch0)
		checkAt[k] = append(checkAt[k], cp)
	}

	g := m.ds.ref
	inc := g.IncrementalSCC(mutateS)
	answers := make([]epochAnswer, len(m.log)+1)
	var lg *nwhy.SLineGraph
	for k := 0; k <= len(m.log); k++ {
		op := int64(1<<42 + k)
		if k > 0 {
			w := m.log[k-1]
			if err := m.apply(ctx, g, w, tr, op); err != nil {
				out.attempted++
				out.fail("mirror commit %d: %v", k, err)
				return
			}
			if tr != nil {
				tr.timed("core.toplex", 0, op, func() { _, _ = g.ToplexesCtx(ctx) })
			}
		}
		var (
			labels []uint32
			err    error
		)
		tr.timed("nwhy.incremental_scc", 0, op, func() { labels, _, err = inc.Labels(ctx) })
		if err == nil {
			if lg == nil {
				lg, err = g.SLineGraphCtx(ctx, mutateS, true, nwhy.ConstructOptions{})
			} else {
				var kind nwhy.Refresh
				tr.timed("slinegraph.refresh", 0, op, func() { lg, kind, err = g.RefreshSLineGraphCtx(ctx, lg, nwhy.ConstructOptions{}) })
				m.refreshes++
				if kind == nwhy.RefreshPatched {
					m.patched++
				}
			}
		}
		if err != nil {
			out.attempted++
			out.fail("mirror answers at epoch %d: %v", k, err)
			return
		}
		n, largest := componentSummary(labels)
		a := epochAnswer{scc: [2]int{n, largest}, lineEdges: lg.NumEdges(), dist: map[[2]int]int{}}
		for p := range needPairs[k] {
			if a.dist[p], err = lg.SDistanceCtx(ctx, p[0], p[1]); err != nil {
				out.attempted++
				out.fail("mirror distance at epoch %d: %v", k, err)
				return
			}
		}
		answers[k] = a
		for _, cp := range checkAt[k] {
			m.checkExact(ctx, out, g, cp)
		}
	}
	m.incrementals, m.fulls = inc.Counts()

	for _, r := range m.reads {
		if r.c.failed() {
			continue // already counted by checkCalls
		}
		lo, hi := m.span(r.c)
		var last string
		ok := false
		for k := lo; k <= hi && !ok; k++ {
			last = answers[k].matches(r)
			ok = last == ""
		}
		if !ok {
			out.fail("%s at epochs %d..%d: %s", r.c.url, lo, hi, last)
		}
	}
}

// span maps a read's observable epoch range onto write-log indices.
func (m *mutateSource) span(c *call) (int, int) {
	lo := int(c.lo - m.epoch0)
	hi := min(int(c.hi-m.epoch0), len(m.log))
	return lo, max(lo, hi)
}

// apply commits one logged write on the mirror and checks it assigned the
// IDs the server did.
func (m *mutateSource) apply(ctx context.Context, g *nwhy.NWHypergraph, w writeRec, tr *tracer, op int64) error {
	mu, err := g.BeginMutation()
	if err != nil {
		return err
	}
	var added []uint32
	for _, o := range w.ops {
		switch o.Op {
		case "add":
			id, err := mu.AddEdge(o.Members)
			if err != nil {
				return err
			}
			added = append(added, id)
		case "remove":
			if err := mu.RemoveEdge(o.ID); err != nil {
				return err
			}
		}
	}
	tr.timed("nwhy.commit", 0, op, func() { err = mu.CommitCtx(ctx) })
	if err != nil {
		return err
	}
	if !slices.Equal(added, w.added) {
		return fmt.Errorf("mirror assigned IDs %v, server %v", added, w.added)
	}
	return nil
}

// matches reports "" when r's response equals a, else why not.
func (a epochAnswer) matches(r readRec) string {
	switch r.what {
	case "scc":
		got, err := decode[server.SCCResult](r.c.resp)
		if err != nil {
			return err.Error()
		}
		if got.NumComponents != a.scc[0] || got.LargestSize != a.scc[1] {
			return fmt.Sprintf("%d components (largest %d), want %v", got.NumComponents, got.LargestSize, a.scc)
		}
	case "sline":
		got, err := decode[server.SLineResult](r.c.resp)
		if err != nil {
			return err.Error()
		}
		if got.NumEdges != a.lineEdges {
			return fmt.Sprintf("%d line edges, want %d", got.NumEdges, a.lineEdges)
		}
	case "sdist":
		got, err := decode[server.SDistanceResult](r.c.resp)
		if err != nil {
			return err.Error()
		}
		want, ok := a.dist[[2]int{r.src, r.dst}]
		if !ok || int(got.Distance) != want {
			return fmt.Sprintf("distance %v, want %d", got.Distance, want)
		}
	}
	return ""
}

// checkExact checks a checkpoint against reference answers computed on
// independent paths at the mirror's current epoch.
func (m *mutateSource) checkExact(ctx context.Context, out *outcome, g *nwhy.NWHypergraph, cp checkpoint) {
	labels, err := g.SConnectedComponentsDirectCtx(ctx, mutateS)
	if err != nil {
		out.attempted++
		out.fail("checkpoint reference: %v", err)
		return
	}
	lg, err := refLineGraph(ctx, g, mutateS)
	if err != nil {
		out.attempted++
		out.fail("checkpoint reference: %v", err)
		return
	}
	n, largest := componentSummary(labels)
	a := epochAnswer{scc: [2]int{n, largest}, lineEdges: lg.NumEdges(), dist: map[[2]int]int{}}
	for _, p := range m.pairs {
		if a.dist[p], err = lg.SDistanceCtx(ctx, p[0], p[1]); err != nil {
			out.attempted++
			out.fail("checkpoint reference: %v", err)
			return
		}
	}
	for _, r := range cp.reads {
		out.attempted++
		if r.c.failed() {
			out.fail("checkpoint %s: %v", r.c.url, r.c.statusErr())
			continue
		}
		if why := a.matches(r); why != "" {
			out.fail("checkpoint %s at epoch %d: %s", r.c.url, cp.epoch, why)
		}
	}
}

// layers reports the mirror's refresh and incremental s-CC counters.
func (m *mutateSource) layers(extra map[string]float64) {
	if m.refreshes > 0 {
		extra["slinegraph.refresh_patched_ratio"] = float64(m.patched) / float64(m.refreshes)
	}
	if n := m.incrementals + m.fulls; n > 0 {
		extra["nwhy.incremental_ratio"] = float64(m.incrementals) / float64(n)
	}
}

// runServeMutate is the serve-mutate workload: writes beside reads on one
// dataset at a fixed open-loop rate.
func runServeMutate(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	ref := nwhy.NewEngine(0)
	defer ref.Close()
	dir := filepath.Join(cfg.dir, "data")
	ds, err := writeDatasets(cfg, []shape{mutateShape}, dir, ref)
	if err != nil {
		return nil, err
	}
	d := ds[0]
	// Sizes are taken before verify turns the reference handle into the
	// mirror, so replay sources draw the same calls as the HTTP run.
	edges, nodes := d.ref.NumEdges(), d.ref.NumNodes()
	fresh := func() source { return newMutateSource(cfg.seed, d, edges, nodes) }
	warm := func(s *served) error {
		for _, u := range []string{
			fmt.Sprintf("/scc?dataset=%s&s=%d&incremental=true", d.name, mutateS),
			fmt.Sprintf("/slinegraph?dataset=%s&s=%d", d.name, mutateS),
		} {
			c := &call{method: "GET", url: u}
			s.do(ctx, c)
			if c.failed() {
				return fmt.Errorf("warm-up %s: %w", u, c.statusErr())
			}
		}
		return nil
	}
	return runServe(ctx, cfg, tr, dir, fresh, mutateBlock.size, warm, mutateRate, func([]*served, map[string]float64) error {
		return coldLoads(ctx, ref, ds, tr)
	})
}
