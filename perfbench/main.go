// Command perfbench is llama4d's end-to-end benchmark. It drives the
// functional training cluster, the serving engine and the parallelism
// planner through their public API on one of four workloads, checks that
// their outputs are correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 the run also installs span tracing from the outside, on
// top of the program's metrics.Registry (wrapped stage fragments, batcher,
// shard planner and serving runner; the world's Recorder and Meter; every
// executor's Observer), and reports the per-layer metrics. Spans are kept in memory and written to
// .bench_build/spans/<workload>-<seed>.jsonl when the run ends.
//
// Usage:
//
//	perfbench -workload pretrain|longctx|serve|plan -seed N -seconds S -trace 0|1 [-cpuprofile FILE]
//
// A failed correctness check prints the result with "correct": false and
// exits 1. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns to main.
type outcome struct {
	attempted, failed int
	failures          []string          // one line per failed check (first few)
	e2e               map[string]metric // end-to-end metrics (untraced)
	layers            map[string]metric // per-layer metrics (traced run only)
	notes             []string          // human-readable context lines
	tracer            *tracer           // non-nil on traced runs
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) setE2E(name, unit string, v float64) {
	if o.e2e == nil {
		o.e2e = map[string]metric{}
	}
	o.e2e[name] = metric{v, unit}
}

func (o *outcome) setLayer(name, unit string, v float64) {
	if o.layers == nil {
		o.layers = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.layers[name] = metric{v, unit}
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) *outcome{
	"pretrain": runPretrain,
	"longctx":  runLongctx,
	"serve":    runServe,
	"plan":     runPlan,
}

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "pretrain, longctx, serve or plan")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measurement time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	opts.trace = traceFlag != 0
	run, ok := workloads[opts.workload]
	if !ok || opts.seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload pretrain|longctx|serve|plan -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}

	stamp := hostStamp(opts)
	if b, err := json.Marshal(stamp); err == nil {
		fmt.Println("host:", string(b))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		defer f.Close()
	}
	out := run(opts)
	pprof.StopCPUProfile()
	out.setE2E("ok_frac", "frac", 1-float64(out.failed)/float64(max(out.attempted, 1)))
	out.setLayer("runtime.peak_rss_mb", "MB", peakRSSMB())

	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, f := range out.failures {
		fmt.Println("FAIL:", f)
	}
	metrics := out.e2e
	if opts.trace {
		metrics = fillLayers(out)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", opts.workload, opts.seed))
		if err := out.tracer.writeSpans(path, stamp); err != nil {
			out.fail("writing spans: %v", err)
		} else {
			fmt.Println("spans written to", path)
		}
	}
	printMetrics(metrics)
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostStamp records the host and run details every result is read against.
func hostStamp(o options) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = true
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     commit,
	}
}

// cpuModel reads the processor name from the kernel's cpuinfo, or
// "unknown" where that interface is absent.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timing is one clock's view of a run's timed operations.
type timing struct {
	ops  []float64 // per-operation time, ms
	mid  float64   // the typical operation, ms
	rate float64   // work units per second
}

// setTimings reports a run's timed operations. The end-to-end metrics
// come from their on-CPU times: the typical operation, the tailP
// percentile of operations, and work units per on-CPU second. The same
// figures from wall time, and on-CPU time per wall second over the
// operations, are per-layer metrics.
func (o *outcome) setTimings(cpu, wall timing, tailP float64) {
	o.setE2E("throughput_per_cpu_s", "1/s", cpu.rate)
	o.setE2E("cpu_ms_p50", "ms", cpu.mid)
	o.setE2E("cpu_ms_tail", "ms", quantile(cpu.ops, tailP/100))
	o.setLayer("wall.throughput_per_s", "1/s", wall.rate)
	o.setLayer("wall.ms_p50", "ms", wall.mid)
	o.setLayer("wall.ms_tail", "ms", quantile(wall.ops, tailP/100))
	o.setLayer("wall.cpu_per_wall", "ratio", frac(sum(cpu.ops), sum(wall.ops)))
}

// stopwatch times an operation two ways: wall time, and the process's
// on-CPU time (user plus system time of all its threads). A guest kernel
// accounts on-CPU time net of the time the hypervisor steals from its
// vCPUs, and on a shared VM that steal varies from run to run by more
// than any bound a benchmark could hold; so the end-to-end metrics are
// on-CPU, and wall time is reported per layer (README "Timing").
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuNow()} }

// elapsed returns the wall and on-CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// cpuNow is the process's on-CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- small statistics helpers ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// resolves reports whether n samples put at least ten beyond percentile p.
func resolves(n int, p float64) bool { return float64(n)*(1-p/100) >= 10 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
