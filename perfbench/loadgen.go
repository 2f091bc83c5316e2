package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nwhy"
	"nwhy/internal/server"
)

// conns is the load generator's connection (and worker) count: the
// benchmark machine's vCPU count, so the generator never needs more
// parallelism than the server it shares the machine with.
const conns = 2

// call is one request: its HTTP form, its in-process Server-method form,
// and what happened to it.
type call struct {
	kind   string // endpoint name, e.g. "sdistance"
	write  bool
	method string
	url    string // path and query
	body   []byte
	// direct is the same request as a Server method call (used by the
	// in-process replay of the traced run).
	direct func(ctx context.Context, s *server.Server) (any, error)
	// check verifies a read's decoded response; nil defers to the workload.
	check func(resp []byte) error

	idx             int           // position in the schedule
	due, sent, done time.Duration // offsets from the phase start
	status          int
	resp            []byte
	result          any // direct form's result
	err             error
	// lo, hi bound the dataset epochs a read can have observed (writes
	// workloads only).
	lo, hi uint64
}

// latency is the call's latency from its due time (its send time in a
// closed loop, where due == sent).
func (c *call) latency() time.Duration { return c.done - c.due }

// failed reports whether the call errored or was refused (a non-2xx status).
func (c *call) failed() bool { return c.err != nil || c.status/100 != 2 }

// source produces a workload's calls. build and finish are never called
// concurrently (the driver serializes them), so sources keep plain state.
type source interface {
	build(i int) *call
	finish(c *call)
}

// jitteredDues returns the seeded arrival offsets of an open loop at rate
// per second over d: request i is due at (i + 1/2 + u)/rate with u uniform
// in ±0.4, a fixed rate without Poisson bursts, so the queueing a run sees
// does not depend on the seed's luck.
func jitteredDues(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		t := (float64(i) + 0.5 + 0.8*(rng.Float64()-0.5)) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// served is one running server: engine, registry, serving core and its
// loopback HTTP listener.
type served struct {
	eng  *nwhy.Engine
	srv  *server.Server
	hs   *http.Server
	base string
	// drv runs Serve and the client workers (the repository routes all
	// concurrency through engine pools).
	drv    *nwhy.Engine
	wg     sync.WaitGroup
	client *http.Client
}

// startServer warm-starts a registry from dir's snapshots and serves it
// with nwhyd's default configuration: a GOMAXPROCS-worker engine, an
// in-flight limit of twice the workers, a queue of four times that, a 2 s
// queue wait, a 64-entry s-line cache and a commit per /mutate.
func startServer(ctx context.Context, dir string) (*served, error) {
	eng := nwhy.NewEngine(0)
	reg := server.NewRegistry()
	if _, err := reg.WarmStart(ctx, eng.WithContext(ctx), dir); err != nil {
		eng.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng, QueueWait: 2 * time.Second, CacheEntries: 64, CompactEvery: 1}, reg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &served{
		eng: eng, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		drv:  nwhy.NewEngine(conns + 2),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	s.wg.Add(1)
	s.drv.Go(func(int) { _ = s.hs.Serve(ln) }, &s.wg)
	return s, nil
}

// close drains the HTTP server, waits for Serve to return and releases
// both engines.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	s.wg.Wait()
	s.client.CloseIdleConnections()
	s.drv.Close()
	s.eng.Close()
}

// do issues one call synchronously (set-up and checkpoints).
func (s *served) do(ctx context.Context, c *call) {
	t0 := time.Now()
	c.status, c.resp, c.err = s.roundTrip(ctx, c)
	c.done = time.Since(t0)
}

func (s *served) roundTrip(ctx context.Context, c *call) (int, []byte, error) {
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, s.base+c.url, body)
	if err != nil {
		return 0, nil, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// phase is what one load phase recorded.
type phase struct {
	calls   []*call
	elapsed time.Duration
}

// openLoop sends src's calls at the given due offsets over at most conns
// connections. A call whose due time passes while both connections are
// busy waits for one; its latency still counts from the due time.
func (s *served) openLoop(ctx context.Context, src source, dues []time.Duration) phase {
	calls := make([]*call, len(dues))
	var (
		next atomic.Int64
		mu   sync.Mutex
	)
	start := time.Now()
	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(dues) {
				return
			}
			waitUntil(start.Add(dues[i]))
			mu.Lock()
			c := src.build(i)
			mu.Unlock()
			c.idx, c.due = i, dues[i]
			c.sent = time.Since(start)
			c.status, c.resp, c.err = s.roundTrip(ctx, c)
			c.done = time.Since(start)
			mu.Lock()
			src.finish(c)
			mu.Unlock()
			calls[i] = c
		}
	}
	s.drv.Invoke(worker, worker)
	return phase{calls: compact(calls), elapsed: time.Since(start)}
}

// closedLoop runs one caller for d: it sends its next call as soon as the
// previous one completes, so the throughput it reaches is the serving
// path's sequential capacity.
func (s *served) closedLoop(ctx context.Context, src source, first int, d time.Duration) phase {
	var (
		mu    sync.Mutex
		calls []*call
		next  = first
	)
	start := time.Now()
	worker := func() {
		for ctx.Err() == nil && time.Since(start) < d {
			mu.Lock()
			c := src.build(next)
			c.idx = next
			next++
			mu.Unlock()
			c.sent = time.Since(start)
			c.due = c.sent
			c.status, c.resp, c.err = s.roundTrip(ctx, c)
			c.done = time.Since(start)
			mu.Lock()
			src.finish(c)
			calls = append(calls, c)
			mu.Unlock()
		}
	}
	s.drv.Invoke(worker)
	return phase{calls: calls, elapsed: time.Since(start)}
}

// waitUntil returns at t. It sleeps until shortly before t and then
// yields in a loop, because a timer sleep on an idle machine can wake up to
// a millisecond late, which would add the generator's own lag to every
// latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before a due time waitUntil stops sleeping.
const spinWindow = 1500 * time.Microsecond

// blockAlign rounds i up to a multiple of size.
func blockAlign(i, size int) int { return (i + size - 1) / size * size }

// throughput is the closed loop's completed calls per second over its
// whole blocks of size calls (each block has the workload's exact
// composition), falling back to every call when no block completed.
func (p phase) throughput(size int) float64 {
	if len(p.calls) == 0 {
		return 0
	}
	first := p.calls[0].idx
	for _, c := range p.calls {
		first = min(first, c.idx)
	}
	done := map[int]time.Duration{}
	for _, c := range p.calls {
		done[c.idx-first] = c.done
	}
	n, end := 0, time.Duration(0)
	for n < len(p.calls) {
		d, ok := done[n]
		if !ok {
			break
		}
		end = max(end, d)
		n++
	}
	if whole := n / size * size; whole > 0 {
		end = 0
		for i := 0; i < whole; i++ {
			end = max(end, done[i])
		}
		return float64(whole) / end.Seconds()
	}
	return float64(len(p.calls)) / p.elapsed.Seconds()
}

func compact(calls []*call) []*call {
	out := calls[:0]
	for _, c := range calls {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// lagP99 is the 99th percentile of send lag behind the schedule.
func (p phase) lagP99() float64 {
	lags := make([]float64, len(p.calls))
	for i, c := range p.calls {
		lags[i] = ms(c.sent - c.due)
	}
	return quantile(lags, 0.99)
}

// maxOutstanding is the largest number of calls that were due but not yet
// completed at any instant: the generator's backlog plus in-flight calls.
func (p phase) maxOutstanding() int {
	type ev struct {
		t     time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(p.calls))
	for _, c := range p.calls {
		evs = append(evs, ev{c.due, 1}, ev{c.done, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.delta
		best = max(best, cur)
	}
	return best
}

// report prints each endpoint's request count and latency quantiles, and
// the generator's lag, to w (diagnostics on standard error).
func (p phase) report(w io.Writer, name string) {
	byKind := map[string][]float64{}
	var lag []float64
	for _, c := range p.calls {
		k := c.kind
		if strings.Contains(c.url, "incremental=true") {
			k += "-incremental"
		}
		if i := strings.Index(c.url, "dataset="); i >= 0 {
			k += "/" + strings.SplitN(c.url[i+8:], "&", 2)[0]
		}
		byKind[k] = append(byKind[k], ms(c.latency()))
		lag = append(lag, ms(c.sent-c.due))
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := byKind[k]
		fmt.Fprintf(w, "perfbench: %s %-22s n=%-5d p50=%.2fms p90=%.2fms p99=%.2fms\n", name, k, len(v), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99))
	}
	fmt.Fprintf(w, "perfbench: %s lag p50=%.3fms p99=%.3fms over %.1fs\n", name, quantile(lag, 0.5), quantile(lag, 0.99), p.elapsed.Seconds())
}

// latencies returns the latencies (ms) of the phase's reads or writes.
func (p phase) latencies(writes bool) []float64 {
	var out []float64
	for _, c := range p.calls {
		if c.write == writes {
			out = append(out, ms(c.latency()))
		}
	}
	return out
}

// endpointTotals snapshots each endpoint's cumulative handler and queue
// time (ms) and count from the server's own metrics.
type endpointTotals struct{ count, runMs, queueMs float64 }

func totals(s *server.Server) endpointTotals {
	var t endpointTotals
	for _, e := range s.Metrics() {
		n := float64(e.Count)
		t.count += n
		t.runMs += n * e.MeanMs
		t.queueMs += n * e.MeanQueueMs
	}
	return t
}

// serverCounters are the serving core's cumulative counters.
type serverCounters struct {
	hits, misses, waits int64
	rejected, timedOut  int64
	ep                  endpointTotals
}

func counters(s *server.Server) serverCounters {
	var c serverCounters
	c.hits, c.misses, c.waits = s.Cache().Stats()
	_, c.rejected, c.timedOut, _ = s.Admission().Counters()
	c.ep = totals(s)
	return c
}

// httpLayers fills the serving-layer counters of a traced run from the
// phase's calls and the server's counter deltas across it.
func httpLayers(extra map[string]float64, p phase, before, after serverCounters) {
	var rtt, bytesOut float64
	for _, c := range p.calls {
		rtt += ms(c.done - c.sent)
		bytesOut += float64(len(c.resp))
	}
	n := float64(len(p.calls))
	if n == 0 {
		return
	}
	ep := endpointTotals{
		count:   after.ep.count - before.ep.count,
		runMs:   after.ep.runMs - before.ep.runMs,
		queueMs: after.ep.queueMs - before.ep.queueMs,
	}
	extra["server.resp_bytes"] = bytesOut / n
	extra["server.http_ms"] = (rtt - ep.runMs - ep.queueMs) / n
	if ep.count > 0 {
		extra["server.queue_ms"] = ep.queueMs / ep.count
	}
	extra["server.rejected"] = float64(after.rejected - before.rejected)
	extra["server.timed_out"] = float64(after.timedOut - before.timedOut)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	extra["server.cache_misses"] = float64(misses)
	extra["server.cache_waits"] = float64(after.waits - before.waits)
	if hits+misses > 0 {
		extra["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	extra["loadgen.lag_p99_ms"] = p.lagP99()
	extra["loadgen.max_outstanding"] = float64(p.maxOutstanding())
}

// replay runs src's first n calls as in-process Server method calls, one
// at a time, each in a "server.<endpoint>" span when tr is non-nil. It
// returns the summed call time.
func replay(ctx context.Context, srv *server.Server, src source, n int, tr *tracer, opBase int64) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		c := src.build(i)
		total += tr.timed("server."+c.kind, 0, opBase+int64(i), func() {
			c.result, c.err = c.direct(ctx, srv)
		})
		if c.err != nil {
			return total, fmt.Errorf("replay %s %s: %w", c.kind, c.url, c.err)
		}
		c.status = http.StatusOK
		src.finish(c)
	}
	return total, nil
}

// statusErr describes a failed call.
func (c *call) statusErr() error {
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("status %d: %s", c.status, bytes.TrimSpace(c.resp))
}
