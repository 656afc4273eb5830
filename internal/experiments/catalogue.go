package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/rta"
	"repro/internal/scenario"
)

// Experiment is one entry of the paper's evaluation, runnable at full size
// or scaled down (quick). Seeds are offset per experiment from the session
// seed; workers bounds the fleet worker pool (0 = GOMAXPROCS).
type Experiment struct {
	Name string
	Run  func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error)
}

// Outcome is one experiment run's printable table plus its headline numbers.
type Outcome struct {
	Text    string
	Crashes int
	// ACFraction is -1 when the experiment has no AC/SC switching layer.
	ACFraction float64
	// Policy is the switching policy the experiment ran ("" = the default
	// soter-fig9; "grid" for sweeps spanning several policies).
	Policy string
	// Mismatch is non-nil when the result departs from the paper's
	// qualitative finding. The root benchmarks fail on it at full size,
	// seed 1; quick runs are too small to promise it.
	Mismatch error
}

// Catalogue lists every experiment of the paper's evaluation in report
// order. cmd/soter-bench and the root benchmarks both iterate it.
func Catalogue() []Experiment {
	return []Experiment{
		{"fig5r", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			laps := 10
			if quick {
				laps = 5
			}
			res, err := Fig5Right(Fig5Config{Seed: seed, Laps: laps, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: res.CollidingLaps, ACFraction: -1}
			if res.CollidingLaps == 0 {
				out.Mismatch = errors.New("expected the unprotected third-party controller to collide")
			}
			return out, nil
		}},
		{"fig5l", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			laps := 12
			if quick {
				laps = 6
			}
			res, err := Fig5Left(Fig5Config{Seed: seed + 4, Laps: laps, Workers: workers, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: res.UnsafeLoops, ACFraction: -1}
			if res.UnsafeLoops == 0 || res.UnsafeLoops == res.Loops {
				out.Mismatch = fmt.Errorf("expected a mix of safe and unsafe loops, got %d/%d", res.UnsafeLoops, res.Loops)
			}
			return out, nil
		}},
		{"fig6", func(ctx context.Context, seed int64, _ bool, _ int) (Outcome, error) {
			res, err := Fig6(Fig6Config{Seed: seed + 1, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: boolCount(res.Crashed), ACFraction: -1}
			if res.Crashed || !res.Reached || res.Disengagements == 0 {
				out.Mismatch = fmt.Errorf("unexpected fig6 outcome: %+v", res)
			}
			return out, nil
		}},
		{"fig10", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			samples := 4000
			if quick {
				samples = 1000
			}
			res, err := Fig10(Fig10Config{Seed: seed + 2, Samples: samples, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Text: res.Format(), ACFraction: -1}, nil
		}},
		{"fig12a", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			tours := 2
			if quick {
				tours = 1
			}
			res, err := Fig12a(Fig12aConfig{Seed: seed + 3, Tours: tours, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), ACFraction: -1}
			for _, row := range res.Rows {
				out.Crashes += row.Collisions
				if row.Mode == "rta" {
					out.ACFraction = row.ACFraction
				}
			}
			return out, nil
		}},
		{"fig12b", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			d := 2 * time.Minute
			if quick {
				d = 45 * time.Second
			}
			res, err := Fig12b(Fig12bConfig{Seed: seed + 6, Duration: d, Faults: true, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: boolCount(res.Crashed), ACFraction: res.ACFraction}
			if res.Crashed {
				out.Mismatch = errors.New("RTA-protected surveillance mission crashed")
			}
			return out, nil
		}},
		{"fig12b-fleet", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := Fig12bFleetConfig{
				BaseSeed: seed + 6, Missions: 8, Duration: time.Minute,
				Faults: true, Workers: workers, Context: ctx,
			}
			if quick {
				cfg.Missions = 4
				cfg.Duration = 30 * time.Second
			}
			res, err := Fig12bFleet(cfg)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Text: res.Format(), Crashes: res.Crashes, ACFraction: res.MeanACFraction}, nil
		}},
		{"fig12c", func(ctx context.Context, seed int64, _ bool, _ int) (Outcome, error) {
			res, err := Fig12c(Fig12cConfig{Seed: seed + 10, Context: ctx})
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: boolCount(res.Crashed), ACFraction: -1}
			if res.Crashed || !res.Landed {
				out.Mismatch = fmt.Errorf("battery safety failed: %+v", res)
			}
			return out, nil
		}},
		{"sec5c", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			cfg := Sec5cConfig{Seed: seed + 2, Queries: 40, ClosedLoop: time.Minute, Context: ctx}
			if quick {
				cfg.Queries = 15
				cfg.ClosedLoop = 0
			}
			res, err := Sec5c(cfg)
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), Crashes: boolCount(res.ClosedCrashed), ACFraction: res.PlannerACFrac}
			if res.BuggyColliding == 0 || res.CertColliding != 0 || res.ClosedCrashed {
				out.Mismatch = fmt.Errorf("unexpected sec5c outcome: %+v", res)
			}
			return out, nil
		}},
		{"sec5d", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := Sec5dConfig{Seed: seed + 12, SimHours: 0.5, Workers: workers, Context: ctx}
			if quick {
				cfg.SimHours = 0.1
				cfg.SegmentMinutes = 3
			}
			res, err := Sec5d(cfg)
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), ACFraction: -1}
			for _, row := range res.Rows {
				out.Crashes += row.Crashes
			}
			if len(res.Rows) > 0 {
				out.ACFraction = res.Rows[0].ACFraction
			}
			return out, nil
		}},
		{"abl-delta", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationDelta(ablationConfig(ctx, seed, quick, workers))
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), ACFraction: -1}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
				// Report the paper-default grid point (Δ=100ms, hysteresis 2).
				if row.Delta == 100*time.Millisecond && row.Hysteresis == 2.0 {
					out.ACFraction = row.ACFraction
				}
			}
			return out, nil
		}},
		{"abl-policy", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationPolicy(ablationConfig(ctx, seed, quick, workers))
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), ACFraction: -1, Policy: "grid"}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
				// Report the paper-default policy's AC fraction as the headline.
				if row.Policy == rta.DefaultPolicyName {
					out.ACFraction = row.ACFraction
				}
				if row.Crashed && out.Mismatch == nil {
					out.Mismatch = fmt.Errorf("policy %s crashed — the framework clamp must keep every policy safe", row.Policy)
				}
			}
			return out, nil
		}},
		{"abl-return", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationReturn(ablationConfig(ctx, seed, quick, workers))
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: res.Format(), ACFraction: -1}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
			}
			if len(res.Rows) > 0 {
				out.ACFraction = res.Rows[0].ACFraction
			}
			return out, nil
		}},
		{"scenarios", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := fleet.GridConfig{
				Specs:    scenario.All(),
				Seeds:    fleet.Seeds(seed, 3),
				Duration: 30 * time.Second,
			}
			if quick {
				cfg.Seeds = fleet.Seeds(seed, 2)
				cfg.Duration = 10 * time.Second
			}
			rep := fleet.Run(ctx, fleet.ScenarioGrid(cfg), fleet.Options{Workers: workers})
			if err := rep.FirstErr(); err != nil {
				return Outcome{}, err
			}
			out := Outcome{Text: formatScenarioSweep(rep), Crashes: rep.Crashes, ACFraction: -1}
			if s := rep.ModuleStats("safe-motion-primitive"); s.ACTime+s.SCTime > 0 {
				out.ACFraction = s.ACFraction()
			}
			return out, nil
		}},
	}
}

// ablationConfig is the shared configuration of the three ablation sweeps.
func ablationConfig(ctx context.Context, seed int64, quick bool, workers int) AblationConfig {
	cfg := AblationConfig{Seed: seed + 5, Workers: workers, Context: ctx}
	if quick {
		cfg.Duration = 40 * time.Second
	}
	return cfg
}

// formatScenarioSweep appends per-mission verdict lines to the fleet summary.
func formatScenarioSweep(rep *fleet.Report) string {
	text := "Scenario registry sweep (every registered workload x seeds)\n" + rep.Format()
	for _, res := range rep.Results {
		if res.Err != nil {
			text += fmt.Sprintf("  %-44s ERROR: %v\n", res.Name, res.Err)
			continue
		}
		m := res.Metrics
		text += fmt.Sprintf("  %-44s crashed=%-5v landed=%-5v AC→SC=%-3d targets=%d\n",
			res.Name, m.Crashed, m.Landed, m.TotalDisengagements(), m.TargetsVisited)
	}
	return text
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}
