package experiments

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/reach"
)

// Fig10Config parameterises the regions-of-operation study.
type Fig10Config struct {
	Seed    int64
	Samples int
	// Context, when non-nil, cancels the sampling: it is checked between
	// samples.
	Context context.Context
}

// Fig10Result reports the regions of operation of Figure 10 (fractions of
// sampled kinematic states per region) and cross-validates the analytic
// reach sets against the grid backward-reachability computation standing in
// for the Level-Set Toolbox (the yellow/green regions of Figure 12b).
type Fig10Result struct {
	Samples   int
	Fractions map[reach.Region]float64
	// GridEscapableFrac is the fraction of free cells from which the
	// velocity-bounded plant can leave φsafe within 2Δ, per the grid BRS.
	GridEscapableFrac float64
	// Agreement is the fraction of zero-velocity samples where the analytic
	// ttf2Δ check and the grid BRS agree.
	Agreement float64
}

// Format prints the Figure 10 / 12b region statistics.
func (r Fig10Result) Format() string {
	var t table
	t.title("Figure 10: regions of operation (state-space fractions, city workspace)")
	t.row("region", "fraction")
	for _, reg := range []reach.Region{reach.RegionUnsafe, reach.RegionSafe, reach.RegionRecover, reach.RegionSaferCore} {
		t.row(reg.String(), fmtPct(r.Fractions[reg]))
	}
	t.line("grid BRS (Level-Set stand-in): %.1f%% of free cells can escape φsafe within 2Δ", 100*r.GridEscapableFrac)
	t.line("analytic-vs-grid agreement on zero-velocity states: %s", fmtPct(r.Agreement))
	return t.String()
}

// Fig10 samples the state space and classifies the regions.
func Fig10(cfg Fig10Config) (Fig10Result, error) {
	if cfg.Samples <= 0 {
		cfg.Samples = 4000
	}
	ctx := runCtx(cfg.Context)
	ws := geom.CityWorkspace()
	params := plant.DefaultParams()
	aws, err := mission.AnalysisWorkspace(ws)
	if err != nil {
		return Fig10Result{}, err
	}
	bounds := reach.Bounds{MaxAccel: params.MaxAccel, MaxVel: params.MaxVel, BrakeDecel: 0.8 * params.MaxAccel}
	const delta = 100 * time.Millisecond
	an, err := reach.NewAnalyzer(aws, bounds, 0.45, delta, 2.0)
	if err != nil {
		return Fig10Result{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	counts := make(map[reach.Region]int)
	b := ws.Bounds()
	size := b.Size()
	for i := 0; i < cfg.Samples; i++ {
		if err := ctx.Err(); err != nil {
			return Fig10Result{}, err
		}
		pos := geom.V(
			b.Min.X+rng.Float64()*size.X,
			b.Min.Y+rng.Float64()*size.Y,
			b.Min.Z+rng.Float64()*size.Z,
		)
		vel := geom.V(
			(rng.Float64()*2-1)*bounds.MaxVel,
			(rng.Float64()*2-1)*bounds.MaxVel,
			(rng.Float64()*2-1)*bounds.MaxVel,
		)
		counts[an.Classify(pos, vel)]++
	}
	res := Fig10Result{Samples: cfg.Samples, Fractions: make(map[reach.Region]float64)}
	for reg, n := range counts {
		res.Fractions[reg] = float64(n) / float64(cfg.Samples)
	}

	// Grid backward reachable set over the physical workspace, at a
	// resolution fine enough to resolve the thin 2Δ escape band.
	grid, err := geom.NewGrid(ws, 0.4, 0.45)
	if err != nil {
		return Fig10Result{}, err
	}
	brs, err := reach.NewBackwardReachSet(grid, bounds.MaxVel)
	if err != nil {
		return Fig10Result{}, err
	}
	res.GridEscapableFrac = brs.FractionEscapable(2 * delta)

	// Cross-validation on zero-velocity states: the analytic check reduces
	// to "reach box over 2Δ plus braking clears the obstacles"; the grid
	// check to "time-to-unsafe > 2Δ at vmax". Both over-approximate
	// differently, so we report agreement rather than require equality.
	agree, total := 0, 0
	for i := 0; i < cfg.Samples/2; i++ {
		if err := ctx.Err(); err != nil {
			return Fig10Result{}, err
		}
		pos, ok := ws.RandomFreePoint(rng, 0.45, 128)
		if !ok {
			continue
		}
		total++
		analytic := an.TTF2Delta(pos, geom.Vec3{})
		gridSays := brs.CanEscapeWithin(pos, 2*delta)
		if analytic == gridSays {
			agree++
		}
	}
	if total > 0 {
		res.Agreement = float64(agree) / float64(total)
	}
	return res, nil
}
