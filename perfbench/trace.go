package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one op
// share Op; Parent is the enclosing span's ID (0 for an op's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int64, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is TotalMs minus the time covered by direct child spans.
	SelfMs float64 `json:"self_ms"`
}

// MeanMs is the mean span duration.
func (l layerStat) MeanMs() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.TotalMs / float64(l.Count)
}

// summary aggregates closed spans by name, with self time.
func (t *tracer) summary() map[string]layerStat {
	out := map[string]layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End > 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		l := out[s.Name]
		l.Name = s.Name
		l.Count++
		l.TotalMs += float64(d) / 1e6
		l.SelfMs += float64(self) / 1e6
		out[s.Name] = l
	}
	return out
}

// writeFile writes the span file: the environment stamp, every span, then
// one summary row per span name, as JSON lines.
func (t *tracer) writeFile(path string, env envStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	sum := t.summary()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]layerStat{"summary": sum[n]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
