package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// rrtLength is the fixed simulated length of every sweep-rrt mission: long
// enough for ~20 RRT* replans per mission, short enough that a batch holds
// many missions per scenario. Mission cost varies widely with the mission
// seed, so more, shorter missions keep a batch's totals and median steady
// across workload seeds.
const rrtLength = 10 * time.Second

// sweep is a closed-batch workload: one fleet.Run over a seeded set of
// (scenario, seed) cells, repeated until the run's time is up.
type sweep struct {
	specs []scenario.Spec
	// seedsPer is how many seeds each scenario gets per batch.
	seedsPer int
}

// rrtSweep covers every registry scenario whose stack runs the RRT* planner
// module, at rrtLength.
func rrtSweep() sweep {
	var specs []scenario.Spec
	for _, s := range scenario.All() {
		if s.NoPlannerModule {
			continue
		}
		s.Duration = rrtLength
		specs = append(specs, s)
	}
	return sweep{specs: specs, seedsPer: 24}
}

// gridSweep is corner-hazard-tour at its full length: A* on a grid, no RRT*
// and no battery module, so the per-tick loop dominates.
func gridSweep() sweep {
	return sweep{specs: []scenario.Spec{scenario.MustGet("corner-hazard-tour")}, seedsPer: 24}
}

// cell is one mission of a batch.
type cell struct {
	Spec scenario.Spec
	Seed int64
}

// Name labels the cell like fleet.SeedSweep does.
func (c cell) Name() string { return fmt.Sprintf("%s/seed-%d", c.Spec.Name, c.Seed) }

// cells draws the batch from the workload seed: seedsPer distinct mission
// seeds per scenario. The same seed always gives the same batch.
func (w sweep) cells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var out []cell
	for _, s := range w.specs {
		for i := 0; i < w.seedsPer; i++ {
			ms := rng.Int63n(1<<31) + 1
			for seen[ms] {
				ms = rng.Int63n(1<<31) + 1
			}
			seen[ms] = true
			out = append(out, cell{Spec: s, Seed: ms})
		}
	}
	return out
}

// batch is the outcome of one fleet.Run over the cells.
type batch struct {
	wall    time.Duration
	sim     time.Duration
	latency []float64 // per mission, ms, Build entry to OnResult
	digest  string
	errs    []string
	counts  *Counts // nil unless traced
	workers int
}

// runBatch runs every cell once through fleet.Run with workers workers. With
// a tracer it records the fleet.run ⊃ mission ⊃ scenario.build spans and
// attaches a counting observer to every mission.
func runBatch(ctx context.Context, cells []cell, workers int, tr *Tracer) batch {
	n := len(cells)
	start := make([]time.Time, n)
	lat := make([]float64, n)
	ops := make([]int64, n)
	var perMission []*Counts
	if tr != nil {
		perMission = make([]*Counts, n)
	}
	root := tr.NewOp()
	missions := make([]fleet.Mission, n)
	for i, c := range cells {
		missions[i] = fleet.Mission{
			Name: c.Name(),
			Seed: c.Seed,
			Build: func() (sim.RunConfig, error) {
				// Build and OnResult of one index run on the same worker
				// goroutine, so start/lat/ops need no lock.
				start[i] = time.Now()
				cfg, err := c.Spec.Build(c.Seed)
				if tr != nil {
					ops[i] = tr.NewOp()
					tr.Add(ops[i], ops[i], "scenario.build", start[i], time.Now())
					perMission[i] = newCounts()
					cfg.Observers = append(cfg.Observers, countObserver{perMission[i]})
				}
				return cfg, err
			},
		}
	}
	t0 := time.Now()
	rep := fleet.Run(ctx, missions, fleet.Options{
		Workers: workers,
		OnResult: func(i int, _ fleet.Mission, _ fleet.MissionResult) {
			end := time.Now()
			lat[i] = ms(end.Sub(start[i]))
			if tr != nil {
				tr.Add(root, ops[i], "mission", start[i], end)
			}
		},
	})
	b := batch{wall: rep.Wall, sim: rep.SimTime, latency: lat, workers: rep.Workers}
	tr.Add(0, root, "fleet.run", t0, time.Now())
	h := sha256.New()
	for _, res := range rep.Results {
		if res.Err != nil {
			b.errs = append(b.errs, fmt.Sprintf("mission %s: %v", res.Name, res.Err))
		}
		m, _ := json.Marshal(res.Metrics)
		sw, _ := json.Marshal(res.Switches)
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00%s\x00%v\n", res.Name, res.Seed, m, sw, res.Err)
	}
	b.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		b.counts = newCounts()
		for _, c := range perMission {
			if c != nil {
				b.counts.Add(c)
			}
		}
	}
	return b
}

// phase is the outcome of running batches back to back for a while.
type phase struct {
	batches []batch
	peakMem float64 // over the phase, MiB
	goDelta []Metric
}

// runPhase runs batches until d has elapsed (at least one batch).
func runPhase(ctx context.Context, cells []cell, workers int, d time.Duration, tr *Tracer) phase {
	var p phase
	g0 := readGoStats()
	mem := startMemSampler()
	t0 := time.Now()
	for len(p.batches) == 0 || time.Since(t0) < d {
		p.batches = append(p.batches, runBatch(ctx, cells, workers, tr))
	}
	p.peakMem = mem.Stop()
	missions := 0
	for _, b := range p.batches {
		missions += len(b.latency)
	}
	p.goDelta = goDelta(g0, readGoStats(), float64(missions))
	return p
}

// rtfs returns the per-batch real-time factors (simulated s per host s).
func (p phase) rtfs() []float64 {
	out := make([]float64, len(p.batches))
	for i, b := range p.batches {
		out[i] = b.sim.Seconds() / b.wall.Seconds()
	}
	return out
}

// warmUp is the sweep's set-up: it builds every scenario's stack from
// scratch, bypassing the mission layer's process-wide artifact pool so every
// repeat pays for building the artifacts, and simulates one mission per
// scenario so lazily built state and the Go heap reach their working size
// before timing. It returns each build's duration in ms.
func warmUp(ctx context.Context, w sweep, seed int64) ([]float64, error) {
	var builds []float64
	for _, s := range w.specs {
		t0 := time.Now()
		cfg, err := s.BuildWith(seed, func(c *mission.StackConfig) { c.FreshArtifacts = true })
		if err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(t0)))
		cfg.Context = ctx
		if _, err := sim.Run(cfg); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
	}
	return builds, nil
}

// runSweep measures one sweep workload.
func runSweep(ctx context.Context, w sweep, o Options) (*Result, error) {
	cells := w.cells(o.Seed)
	var setups, builds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		b, err := warmUp(ctx, w, o.Seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, b...)
	}
	// Untimed: fill the artifact pool the measured missions build from.
	for _, s := range w.specs {
		if _, err := s.Build(o.Seed); err != nil {
			return nil, err
		}
	}

	res := &Result{}
	measure := o.Duration
	if o.Trace {
		measure /= 2
	}
	plain := runPhase(ctx, cells, o.Workers, measure, nil)
	res.absorb(plain.batches)

	var lat []float64
	for _, b := range plain.batches {
		lat = append(lat, b.latency...)
	}
	rtf := plain.rtfs()
	opsPerS := make([]float64, len(plain.batches))
	for i, b := range plain.batches {
		opsPerS[i] = float64(len(b.latency)) / b.wall.Seconds()
	}
	res.Metrics = []Metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Samples: setups},
		{Name: "sim_rtf", Unit: "s/s", Better: "higher", Samples: rtf},
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Samples: lat},
		{Name: "op_p90_ms", Unit: "ms", Better: "lower", Stat: "p90", Samples: lat},
		{Name: "missions_per_s", Unit: "1/s", Better: "higher", Samples: opsPerS},
		one("peak_mem_mb", "MiB", "lower", plain.peakMem),
		one("error_rate", "frac", "lower", res.errorRate()),
	}
	res.Notes = append(res.Notes, fmt.Sprintf("batch: %d missions (%d scenarios x %d seeds), %d workers, %d batches",
		len(cells), len(w.specs), w.seedsPer, o.Workers, len(plain.batches)))
	if !o.Trace {
		return res, nil
	}

	tr := &Tracer{}
	prof, traced, err := profiled(func() phase { return runPhase(ctx, cells, o.Workers, measure, tr) })
	if err != nil {
		return nil, err
	}
	res.absorb(traced.batches)
	var missions int
	var busy, capacity float64
	for _, b := range traced.batches {
		missions += len(b.latency)
		for _, l := range b.latency {
			busy += l
		}
		capacity += float64(b.workers) * ms(b.wall)
	}
	counts := traced.batches[0].counts
	if err := checkCountsKnown(counts); err != nil {
		res.fail(err.Error())
	}
	res.Layers = append(res.Layers, cpuMetrics(CPUByLayer(prof), float64(missions))...)
	res.Layers = append(res.Layers, plain.goDelta...)
	res.Layers = append(res.Layers,
		Metric{Name: "scenario.build_ms", Unit: "ms", Better: "lower", Samples: builds},
		one("fleet.busy_frac", "frac", "higher", perUnit(busy, capacity)),
		one("trace_overhead_frac", "frac", "lower", 1-median(traced.rtfs())/median(rtf)),
	)
	res.Layers = append(res.Layers, countMetrics(counts, 0)...)
	res.Spans = tr
	return res, nil
}

// absorb folds batches into the run's correctness record: every mission is
// an attempted operation, a mission error or a batch whose verdict digest
// differs from the first batch's is a failure.
func (r *Result) absorb(batches []batch) {
	for _, b := range batches {
		r.Attempted += len(b.latency)
		for _, e := range b.errs {
			r.fail(e)
		}
		switch {
		case r.Digest == "":
			r.Digest = b.digest
		case b.digest != r.Digest:
			r.fail(fmt.Sprintf("verdict digest %s differs from first batch %s", b.digest, r.Digest))
		}
	}
}
