// Command perfbench is the repository benchmark: it runs one seeded workload
// against the nwhy library and its serving core, checks every answer against
// an independent reference, and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload batch-file2answer --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics and a span file is written under
// .bench_build/perfbench/. The last line of standard output is always the
// result object; an environment stamp precedes it. The process exits 1 when
// any op failed or any answer disagreed with its reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"
)

// workDir is where inputs and span files go, relative to the checkout root.
const workDir = ".bench_build/perfbench"

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every generated input size and rate; 1 is the
	// benchmark, the self-tests use a small fraction.
	scale float64
	// rate, when positive, replaces a serving workload's fixed open-loop
	// rate: for probing capacity, never for a benchmark run.
	rate float64
	// dir holds this run's generated inputs (removed at exit).
	dir string
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	// problems are the first few failure descriptions, for stderr.
	problems []string
	metrics  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed op with a description (the first 20 are kept).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"batch-file2answer": runBatch,
	"serve-mixed":       runServeMixed,
	"serve-mutate":      runServeMutate,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: inputs, schedules and request mixes derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "input size and rate factor (self-tests only)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop requests/s of a serving workload instead of its fixed rate (capacity probes only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", cfg.workload, names)
		return 2
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.rate < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds and --scale must be positive, --rate not negative")
		return 2
	}

	env := stamp(cfg)
	cfg.dir = filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cpu0 := cpuTimes()
	out, err := wl(ctx, cfg, tr)
	fmt.Fprintf(stderr, "perfbench: cpu steal during the run: %.1f%%\n", 100*stealShare(cpu0, cpuTimes()))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeFile(path, env); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", p)
	}
	if err := printResult(stdout, env, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// printResult writes the environment stamp line and then the result object
// as the last line of stdout.
func printResult(w io.Writer, env envStamp, out *outcome) error {
	if out.attempted < 1 {
		return errors.New("no op was attempted")
	}
	envLine, err := json.Marshal(map[string]envStamp{"env": env})
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", envLine, res)
	return err
}

// phase returns the length of a load phase lasting frac of the run.
func (c config) phase(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}
