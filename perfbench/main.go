// Command perfbench is the repository's benchmark: seeded workloads run
// against the public APIs of the scenario, fleet, sim and service layers, with
// every output checked for correctness and every end-to-end metric reported
// with its median, quartiles and sample count. A separate traced run (-trace 1)
// attributes CPU time to layers and reports exact work counts.
//
//	bash perfbench/run.sh --workload sweep-rrt --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md in this
// directory for the metrics, the workloads and why each was chosen.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 3

// Options configures one run.
type Options struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	Workers  int
	// Dir is the run's scratch directory (disk tiers, span dumps).
	Dir string
}

// Result is one workload run's outcome.
type Result struct {
	Attempted int
	Failed    int
	failures  []string
	// Digest is the sweeps' verdict digest over (name, seed, metrics, switch
	// log) of every mission in the batch.
	Digest string
	// Metrics are the end-to-end metrics, from untraced batches or jobs.
	Metrics []Metric
	// Layers are the per-layer metrics of a traced run.
	Layers []Metric
	Notes  []string
	Spans  *Tracer
}

// fail records a failed operation or check.
func (r *Result) fail(msg string) {
	r.Failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func (r *Result) errorRate() float64 { return perUnit(float64(r.Failed), float64(r.Attempted)) }

// Workloads maps workload names to their runners.
var Workloads = map[string]func(context.Context, Options) (*Result, error){
	"sweep-rrt":  func(ctx context.Context, o Options) (*Result, error) { return runSweep(ctx, rrtSweep(), o) },
	"sweep-grid": func(ctx context.Context, o Options) (*Result, error) { return runSweep(ctx, gridSweep(), o) },
	"serve-mix":  runServe,
}

// WorkloadOrder is the order `--workload all` runs them in.
var WorkloadOrder = []string{"sweep-rrt", "sweep-grid", "serve-mix"}

// EndToEnd names the metrics of the result line of an untraced run; every
// workload reports each of them.
var EndToEnd = []string{"setup_s", "sim_rtf", "op_p50_ms", "op_p90_ms"}

func main() {
	workload := flag.String("workload", "", "sweep-rrt | sweep-grid | serve-mix | all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	out := flag.String("out", ".bench_build/perfbench-run", "scratch directory for disk tiers and span dumps")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = WorkloadOrder
	}
	for _, n := range names {
		if Workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s | all)\n", n, strings.Join(WorkloadOrder, " | "))
			os.Exit(2)
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := Options{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Workers:  goruntime.NumCPU(),
		Dir:      dir,
	}

	final := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		env := recordEnv(name, o)
		res, err := Workloads[name](context.Background(), o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		env.finish()
		res.Layers = completeLayers(res.Layers)
		line := report(os.Stdout, name, env, res, o)
		if len(names) == 1 {
			final = line
			break
		}
		final.Correct = final.Correct && line.Correct
		final.Attempted += line.Attempted
		final.Failed += line.Failed
		for k, v := range line.Metrics {
			final.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable record of one run (environment, checks,
// every metric with its distribution) and returns its result line: the
// end-to-end metrics of EndToEnd, or with tracing every per-layer metric.
func report(w io.Writer, name string, env Env, res *Result, o Options) resultLine {
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "# perfbench %s\n", name)
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "digest %s\n", res.Digest)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "check attempted=%d failed=%d error_rate=%g\n", res.Attempted, res.Failed, res.errorRate())
	fmt.Fprintf(w, "%-34s %-9s %12s %12s %12s %12s %12s %7s\n", "metric", "unit", "value", "p25", "p50", "p75", "p90", "n")
	printMetric := func(m Metric) {
		s := Summarize(m.Samples)
		note := ""
		if m.Stat == "p90" && !s.P90OK() {
			note = fmt.Sprintf("  (only %d samples above p90; need %d)", s.Above90, minAbove)
		}
		fmt.Fprintf(w, "%-34s %-9s %12.5g %12.5g %12.5g %12.5g %12.5g %7d%s\n",
			m.Name, m.Unit, m.Value(), s.P25, s.P50, s.P75, s.P90, s.N, note)
	}
	for _, m := range res.Metrics {
		printMetric(m)
	}
	for _, m := range res.Layers {
		printMetric(m)
	}
	if res.Spans != nil {
		path := filepath.Join(o.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.Seed))
		if err := res.Spans.Write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(w, "spans %s\n", path)
		}
	}

	line := resultLine{
		Correct:   res.Failed == 0 && res.Attempted > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	if o.Trace {
		for _, m := range res.Layers {
			line.Metrics[m.Name] = metricValue{m.Value(), m.Unit}
		}
		return line
	}
	for _, m := range res.Metrics {
		for _, want := range EndToEnd {
			if m.Name == want {
				line.Metrics[m.Name] = metricValue{m.Value(), m.Unit}
			}
		}
	}
	return line
}

// PerLayer is the per-layer metric set of a traced run, in report order,
// with zero values. Every workload prints all of it; a metric of a layer the
// workload does not exercise reads 0.
func PerLayer() []Metric {
	var out []Metric
	out = append(out, cpuMetrics(nil, 0)...)
	out = append(out, goDelta(goStats{}, goStats{}, 0)...)
	out = append(out,
		one("scenario.build_ms", "ms", "lower", 0),
		one("fleet.busy_frac", "frac", "higher", 0))
	for _, name := range []string{"submit", "queue", "run", "stream", "report"} {
		out = append(out, one("service."+name+"_ms", "ms", "lower", 0))
	}
	out = append(out, storeMetrics(storeTotals{}, storeTotals{}, 0)...)
	out = append(out, one("trace_overhead_frac", "frac", "lower", 0))
	return append(out, countMetrics(newCounts(), 0)...)
}

// completeLayers orders a workload's per-layer metrics like PerLayer and
// fills in the ones it does not report. Without tracing it returns nil.
func completeLayers(got []Metric) []Metric {
	if len(got) == 0 {
		return nil
	}
	out := PerLayer()
	for i, m := range out {
		for _, g := range got {
			if g.Name == m.Name {
				out[i] = g
			}
		}
	}
	return out
}

// profiled runs fn under the CPU profiler and returns the profile's samples.
func profiled[T any](fn func() T) ([]Sample, T, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		var zero T
		return nil, zero, fmt.Errorf("cpu profile: %w", err)
	}
	v := fn()
	pprof.StopCPUProfile()
	samples, err := ParseCPUProfile(buf.Bytes())
	return samples, v, err
}

// Env is the machine and build record printed with every result.
type Env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadBefore string  `json:"load_before"`
	LoadAfter  string  `json:"load_after"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other guests during the run, from /proc/stat (-1 when unknown).
	// Neighbours that steal CPU slow every wall-clock metric; compare runs
	// with similar values.
	StealFrac float64 `json:"steal_frac"`
	// ProcCPUS is the CPU time (user + system) this process used.
	ProcCPUS float64 `json:"proc_cpu_s"`
	// CalibCPUMS and CalibMemMS time two fixed single-core tasks before and
	// after the run: SHA-256 of 8 MiB (compute) and a dependent random walk
	// over 32 MiB (memory latency), each the median of 5. They move with the
	// host's speed, not the repository's code: when they differ between two
	// runs, so does every wall-clock metric, whatever the code did.
	CalibCPUMS [2]float64 `json:"calib_cpu_ms"`
	CalibMemMS [2]float64 `json:"calib_mem_ms"`

	stat0 []uint64
}

func recordEnv(workload string, o Options) Env {
	e := Env{
		Workload:   workload,
		Seed:       o.Seed,
		Seconds:    o.Duration.Seconds(),
		Trace:      o.Trace,
		GoVersion:  goruntime.Version(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NumCPU:     goruntime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		LoadBefore: loadAvg(),
		stat0:      cpuStat(),
	}
	e.CalibCPUMS[0], e.CalibMemMS[0] = calibrate()
	return e
}

// calibrate times the host on two fixed tasks that touch no repository code.
func calibrate() (cpuMS, memMS float64) {
	buf := make([]byte, 8<<20)
	// 32 MiB of links forming one full-period LCG cycle (a ≡ 1 mod 4, c odd),
	// which hops far enough each step to defeat the prefetcher.
	next := make([]uint32, 8<<20)
	for i := range next {
		next[i] = uint32((uint64(i)*2862933555777941757 + 3037000493) % uint64(len(next)))
	}
	var cpu, mem []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		t1 := time.Now()
		p := uint32(0)
		for k := 0; k < 1<<18; k++ {
			p = next[p]
		}
		cpu, mem = append(cpu, ms(t1.Sub(t0))), append(mem, ms(time.Since(t1)))
		buf[0] = byte(p) // keeps the walk from being optimised away
	}
	return median(cpu), median(mem)
}

// finish records the end-of-run half of the environment.
func (e *Env) finish() {
	e.LoadAfter = loadAvg()
	e.CalibCPUMS[1], e.CalibMemMS[1] = calibrate()
	e.StealFrac = -1
	if b := cpuStat(); len(b) > 7 && len(e.stat0) == len(b) {
		var total uint64
		for i := range b {
			total += b[i] - e.stat0[i]
		}
		if total > 0 {
			e.StealFrac = float64(b[7]-e.stat0[7]) / float64(total)
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		e.ProcCPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
}

// cpuStat returns the machine-wide CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), or nil.
func cpuStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 0, len(f)-1)
	for _, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// commit is the VCS revision stamped into the binary by `go build` in a git
// checkout ("+dirty" when the tree had changes), or "unknown".
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
	if dirty {
		rev += "+dirty"
	}
	return rev
}

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

// loadAvg is the 1/5/15-minute load average.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
