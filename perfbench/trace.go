package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rta"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation (a mission or a job) share Op; Parent names
// the enclosing span's ID (0 for a root).
type Span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Dur is the span's duration in milliseconds.
func (s Span) Dur() float64 { return ms(s.End.Sub(s.Start)) }

// Tracer keeps spans in memory; Write dumps them when the run ends. A nil
// *Tracer records nothing, so untraced code paths call it unconditionally.
type Tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// Add records a finished span and returns its ID.
func (t *Tracer) Add(parent, op int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// NewOp allocates an operation (root span) ID.
func (t *Tracer) NewOp() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Durations returns the durations (ms) of every span with the given name.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// Write dumps the spans as JSON Lines.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Counts is the exact work a set of runs did, counted from their event
// streams: firings per node, dropped firings, mode switches and events per
// kind. For a fixed seed they are identical on every run.
type Counts struct {
	Firings        map[string]int64
	Dropped        int64
	Disengagements int64
	Reengagements  int64
	Events         map[string]int64
}

func newCounts() *Counts {
	return &Counts{Firings: map[string]int64{}, Events: map[string]int64{}}
}

// Add folds o into c.
func (c *Counts) Add(o *Counts) {
	for k, v := range o.Firings {
		c.Firings[k] += v
	}
	for k, v := range o.Events {
		c.Events[k] += v
	}
	c.Dropped += o.Dropped
	c.Disengagements += o.Disengagements
	c.Reengagements += o.Reengagements
}

// countObserver counts one run's events. It is attached through
// sim.RunConfig.Observers, so it sees every kind the run emits.
type countObserver struct{ c *Counts }

// OnEvent implements obs.Observer.
func (o countObserver) OnEvent(e obs.Event) {
	o.c.Events[e.Kind().String()]++
	switch e := e.(type) {
	case obs.NodeFired:
		if e.Dropped {
			o.c.Dropped++
		} else {
			o.c.Firings[e.Node]++
		}
	case obs.ModeSwitch:
		if e.To == rta.ModeSC {
			o.c.Disengagements++
		} else {
			o.c.Reengagements++
		}
	}
}

// OnTrajectorySample implements obs.TrajectoryObserver, so counting does not
// force the boxed path onto the stream's highest-volume kind.
func (o countObserver) OnTrajectorySample(obs.TrajectorySample) {
	o.c.Events[obs.KindTrajectorySample.String()]++
}

// goStats is a snapshot of the Go runtime's cumulative allocation and CPU
// counters.
type goStats struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// goDelta turns two snapshots into the go.* per-layer metrics, per operation
// (mission or job).
func goDelta(a, b goStats, ops float64) []Metric {
	frac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	return []Metric{
		one("go.allocs_per_op", "1/op", "lower", perUnit(float64(b.allocs-a.allocs), ops)),
		one("go.alloc_bytes_per_op", "B/op", "lower", perUnit(float64(b.allocBytes-a.allocBytes), ops)),
		one("go.gc_cpu_frac", "frac", "lower", frac),
	}
}

func perUnit(x, work float64) float64 {
	if work <= 0 {
		return 0
	}
	return x / work
}

// memSampler tracks the peak of the memory the Go runtime holds from the OS
// (everything it mapped, less heap pages released back), sampling
// runtime/metrics every few milliseconds. The heap alone is a poor peak for
// the sweeps: at 2–4 MiB it swings by a third with GC timing, while what the
// process holds is steady and still moves with heap growth.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startMemSampler() *memSampler {
	h := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64() - s[1].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *memSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuMetrics converts per-layer CPU nanoseconds into cpu.<layer> metrics in
// milliseconds per operation (mission or job).
func cpuMetrics(byLayer map[string]int64, ops float64) []Metric {
	out := make([]Metric, 0, len(Layers))
	for _, l := range Layers {
		out = append(out, one("cpu."+l, "ms/op", "lower", perUnit(float64(byLayer[l])/1e6, ops)))
	}
	return out
}

// countMetrics renders exact counts as per-layer metrics. Node and kind names
// come from fixed lists so every workload prints the same metric set.
func countMetrics(c *Counts, campaignRuns int64) []Metric {
	var out []Metric
	for _, n := range NodeNames {
		out = append(out, one("runtime.firings."+n, "count", "lower", float64(c.Firings[n])))
	}
	out = append(out,
		one("runtime.dropped_firings", "count", "lower", float64(c.Dropped)),
		one("rta.disengagements", "count", "lower", float64(c.Disengagements)),
		one("rta.reengagements", "count", "lower", float64(c.Reengagements)),
	)
	for _, k := range EventKinds {
		out = append(out, one("obs.events."+k, "count", "lower", float64(c.Events[k])))
	}
	return append(out, one("campaign.runs", "count", "lower", float64(campaignRuns)))
}

// NodeNames are the executor nodes of the registry's mission stacks: the
// RTA modules' AC/SC/DM nodes and the unprotected application nodes.
var NodeNames = []string{
	"battery-safety.dm", "battery.ac", "battery.sc", "mpr.ac", "mpr.sc",
	"planfwd", "planner", "planner.ac", "planner.sc", "safe-motion-planner.dm",
	"safe-motion-primitive.dm", "surveillance", "wpmanager",
}

// EventKinds are the obs event kinds a mission or a job stream carries.
var EventKinds = []string{
	"run_start", "run_end", "node_fired", "mode_switch", "invariant_violation",
	"time_progress", "trajectory_sample", "battery_sample", "crash", "landed",
	"certify_progress",
}

// checkCountsKnown reports a node or event kind the fixed lists above do not
// name: its counts would silently drop out of the report.
func checkCountsKnown(c *Counts) error {
	for n := range c.Firings {
		if !slices.Contains(NodeNames, n) {
			return fmt.Errorf("unlisted node %q", n)
		}
	}
	for k := range c.Events {
		if !slices.Contains(EventKinds, k) {
			return fmt.Errorf("unlisted event kind %q", k)
		}
	}
	return nil
}
