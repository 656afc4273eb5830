package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func testOptions(t *testing.T, d time.Duration, trace bool) Options {
	return Options{Seed: 7, Duration: d, Trace: trace, Workers: 2, Dir: t.TempDir()}
}

// cellSet renders a batch's cells for set comparison.
func cellSet(cells []cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Name()
	}
	slices.Sort(out)
	return out
}

func TestSweepGeneratorsAreSeeded(t *testing.T) {
	for name, w := range map[string]sweep{"sweep-rrt": rrtSweep(), "sweep-grid": gridSweep()} {
		a, b := w.cells(42), w.cells(42)
		if !reflect.DeepEqual(cellSet(a), cellSet(b)) {
			t.Errorf("%s: seed 42 drew two different batches", name)
		}
		if want := len(w.specs) * w.seedsPer; len(a) != want {
			t.Errorf("%s: %d cells, want %d", name, len(a), want)
		}
		if reflect.DeepEqual(cellSet(a), cellSet(w.cells(43))) {
			t.Errorf("%s: seeds 42 and 43 drew the same cells", name)
		}
	}
}

func TestSweepRRTCoversEveryRRTScenario(t *testing.T) {
	var got []string
	for _, s := range rrtSweep().specs {
		got = append(got, s.Name)
	}
	want := []string{"battery-stress", "canyon-corridor", "jitter-storm", "planner-bug-gauntlet", "random-endurance", "surveillance-city"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep-rrt scenarios = %v, want %v", got, want)
	}
}

// TestSweepCountsAndDigestRepeat runs one small traced batch twice: the
// exact work counts and the verdict digest must be identical.
func TestSweepCountsAndDigestRepeat(t *testing.T) {
	w := rrtSweep()
	for i := range w.specs {
		w.specs[i].Duration = 2 * time.Second
	}
	w.seedsPer = 1
	cells := w.cells(5)
	a := runBatch(context.Background(), cells, 2, &Tracer{})
	b := runBatch(context.Background(), cells, 2, &Tracer{})
	if len(a.errs) > 0 || len(b.errs) > 0 {
		t.Fatalf("mission errors: %v %v", a.errs, b.errs)
	}
	if a.digest != b.digest {
		t.Errorf("digest %s != %s", a.digest, b.digest)
	}
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("counts differ:\n%+v\n%+v", a.counts, b.counts)
	}
	if a.counts.Firings["mpr.ac"] == 0 || a.counts.Events["run_start"] != int64(len(cells)) {
		t.Errorf("implausible counts: %+v", a.counts)
	}
	if err := checkCountsKnown(a.counts); err != nil {
		t.Error(err)
	}
}

// roundJobs draws the next round, cold jobs first.
func roundJobs(g *generator) []job {
	cold, reads := g.round()
	return append(cold, reads...)
}

// jobList renders generated jobs for comparison.
func jobList(g *generator, rounds int) []string {
	var out []string
	for _, j := range g.prefill() {
		out = append(out, fmt.Sprintf("prefill %+v", j))
	}
	for r := 0; r < rounds; r++ {
		for _, j := range roundJobs(g) {
			out = append(out, fmt.Sprintf("round %d %+v", r, j))
		}
	}
	return out
}

func TestServeGeneratorIsSeeded(t *testing.T) {
	a, b := jobList(newGenerator(42), 5), jobList(newGenerator(42), 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 42 generated two different job lists")
	}
	cells := func(seed int64) []int64 {
		var out []int64
		g := newGenerator(seed)
		for _, j := range append(g.prefill(), roundJobs(g)...) {
			out = append(out, j.Seeds[0], j.Seeds[1], j.CertSeed)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	if reflect.DeepEqual(cells(42), cells(43)) {
		t.Fatal("seeds 42 and 43 drew the same cells")
	}
}

func TestServeRoundMix(t *testing.T) {
	g := newGenerator(3)
	g.prefill()
	for r := 0; r < 20; r++ {
		n := map[string]int{}
		cold, reads := g.round()
		for _, j := range cold {
			n[fmt.Sprintf("%s/%d", j.Class, j.Server)]++
		}
		for _, j := range reads {
			if j.Class == "cold" {
				t.Fatalf("round %d: cold job among the reads", r)
			}
			n[fmt.Sprintf("%s/%d", j.Class, j.Server)]++
		}
		if got := n["cold/0"] + n["cold/1"]; got != len(cold) {
			t.Fatalf("round %d: %d cold jobs in the cold part of %d", r, got, len(cold))
		}
		for _, m := range roundMix {
			for s := 0; s < 2; s++ {
				if got := n[fmt.Sprintf("%s/%d", m.class, s)]; got != m.n {
					t.Fatalf("round %d: %d %s jobs on server %d, want %d", r, got, m.class, s, m.n)
				}
			}
		}
	}
}

// layer returns the named per-layer metric's value.
func layer(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	for _, m := range completeLayers(res.Layers) {
		if m.Name == name {
			return m.Value()
		}
	}
	t.Fatalf("no per-layer metric %q", name)
	return 0
}

// checkSmoke asserts a traced run passed its checks and reports every
// end-to-end and per-layer metric.
func checkSmoke(t *testing.T, res *Result) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.failures)
	}
	for _, want := range EndToEnd {
		found := false
		for _, m := range res.Metrics {
			found = found || (m.Name == want && m.Value() > 0)
		}
		if !found {
			t.Errorf("end-to-end metric %s missing or zero", want)
		}
	}
	if got, want := len(completeLayers(res.Layers)), len(PerLayer()); got != want {
		t.Errorf("%d per-layer metrics, want %d", got, want)
	}
}

func TestSmokeSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole workloads")
	}
	for _, name := range []string{"sweep-rrt", "sweep-grid"} {
		t.Run(name, func(t *testing.T) {
			res, err := Workloads[name](context.Background(), testOptions(t, 10*time.Millisecond, true))
			if err != nil {
				t.Fatal(err)
			}
			checkSmoke(t, res)
			if res.Digest == "" || layer(t, res, "runtime.firings.mpr.ac") == 0 || layer(t, res, "fleet.busy_frac") <= 0 {
				t.Errorf("sweep reported no digest, firings or busy fraction")
			}
		})
	}
}

func TestSmokeServeMixCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole workloads")
	}
	var counts [2][]float64
	for i := range counts {
		res, err := runServe(context.Background(), testOptions(t, 10*time.Millisecond, true))
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, res)
		for _, m := range completeLayers(res.Layers) {
			if m.Unit == "count" {
				counts[i] = append(counts[i], m.Value())
			}
		}
		if layer(t, res, "obs.events.run_start") == 0 || layer(t, res, "campaign.runs") == 0 {
			t.Errorf("run %d: no cold runs or campaign runs counted", i)
		}
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Errorf("exact counts differ between two runs of one seed:\n%v\n%v", counts[0], counts[1])
	}
}

// TestBenchmarkJSONMatchesReport holds BENCHMARK.json to the metric sets the
// result line prints.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, WorkloadOrder) {
		t.Errorf("workloads %v, want %v", names, WorkloadOrder)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, EndToEnd)
	}
	var want []metric
	for _, m := range PerLayer() {
		want = append(want, metric{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer differs from PerLayer():\n%v\n%v", b.PerLayer, want)
	}
}
