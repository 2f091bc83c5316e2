package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envStamp identifies the environment a record was measured in.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpu_model"`
}

func stamp(cfg config) envStamp {
	return envStamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CPUModel:   cpuModel(),
	}
}

// commit reports the VCS revision stamped into the binary, with "+dirty"
// when the work tree had uncommitted changes, or "unknown" when it was
// built outside a git work tree (as from an exported checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes reads the machine-wide CPU time counters (user through steal) from
// /proc/stat, or nil where there is none.
func cpuTimes() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		out[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// between two cpuTimes samples: time this benchmark could not run, which
// inflates every latency it measures.
func stealShare(before, after []uint64) float64 {
	if len(before) < 8 || len(after) < 8 {
		return 0
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	return float64(after[7]-before[7]) / float64(total)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: a
// weighted mean of all order statistics, weighted by the Beta(q(n+1),
// (1-q)(n+1)) density at each one's rank (evaluated at rank midpoints).
// Unlike a single order statistic it moves smoothly when the quantile
// sits between two clusters of a mixed workload, so run-to-run spread
// reflects the system rather than which cluster the rank landed in.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	logw := make([]float64, n)
	top := math.Inf(-1)
	for i := range s {
		x := (float64(i) + 0.5) / float64(n)
		logw[i] = (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
		top = max(top, logw[i])
	}
	var sum, acc float64
	for i, v := range s {
		w := math.Exp(logw[i] - top)
		sum += w
		acc += w * v
	}
	return acc / sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readMetric samples one runtime/metrics uint64 counter.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative bytes allocated on the heap by the process.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeapBytes forces a collection and reports the heap bytes still live.
func liveHeapBytes() uint64 {
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

const mb = 1 << 20
