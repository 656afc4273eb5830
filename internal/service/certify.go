package service

import (
	"context"
	"time"

	"repro/internal/certify"
	"repro/internal/falsify"
)

// CertifyJobSpec is a certification request — the third job type the server
// runs. Where a sweep job reports per-seed verdicts and a falsify job hunts
// counterexamples, a certify job answers a statistical question: is the
// cell's crash probability below the threshold at the requested confidence?
// Progress streams as certify_progress events (one per batch) over the same
// JSONL event endpoints; the terminal certify.Result is served by
// GET /jobs/{id}/report.
type CertifyJobSpec struct {
	// Scenario names the base scenario of the certified cell.
	Scenario string `json:"scenario"`
	// Overrides is the declarative spec delta defining the cell — the same
	// Params form falsification counterexamples carry, so a falsified cell
	// pastes straight into a certification request.
	Overrides falsify.Params `json:"overrides,omitzero"`
	// Threshold is the crash-probability bound under test, in (0,1). Required.
	Threshold float64 `json:"threshold"`
	// Confidence is the two-sided confidence level; zero defaults to
	// certify.DefaultConfidence.
	Confidence float64 `json:"confidence,omitempty"`
	// MaxSeeds bounds the sweep; zero defaults to certify.DefaultMaxSeeds.
	MaxSeeds int `json:"max_seeds,omitempty"`
	// Batch is the early-stopping granularity; zero defaults to
	// certify.DefaultBatch.
	Batch int `json:"batch,omitempty"`
	// Seed is the base of the deterministic seed sequence; zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Duration overrides the cell's mission horizon.
	Duration Duration `json:"duration,omitempty"`
	// FaultActivation (<1) switches the spec's fault profile to the sporadic
	// model; Boost (>1) adds importance sampling on top. See certify.Config.
	FaultActivation float64 `json:"fault_activation,omitempty"`
	Boost           float64 `json:"boost,omitempty"`
	// Workers bounds the campaign's evaluation pool (never raised above the
	// server's own bound). Worker count never changes certification results.
	Workers int `json:"workers,omitempty"`
}

// config compiles the wire spec into a campaign configuration.
func (cs CertifyJobSpec) config() certify.Config {
	return certify.Config{
		Scenario:        cs.Scenario,
		Overrides:       cs.Overrides,
		Threshold:       cs.Threshold,
		Confidence:      cs.Confidence,
		MaxSeeds:        cs.MaxSeeds,
		Batch:           cs.Batch,
		Seed:            cs.Seed,
		Duration:        time.Duration(cs.Duration),
		FaultActivation: cs.FaultActivation,
		Boost:           cs.Boost,
	}
}

// maxSeeds resolves the effective seed budget (the job's cell total).
func (cs CertifyJobSpec) maxSeeds() int {
	if cs.MaxSeeds > 0 {
		return cs.MaxSeeds
	}
	return certify.DefaultMaxSeeds
}

func (cs CertifyJobSpec) workerBound() int { return cs.Workers }

// run executes the campaign with the job's observers wired straight into the
// engine, so CertifyProgress events stream to /jobs/{id}/events subscribers
// exactly like sweep events do. Deterministic cells (FaultActivation == 1, no
// boost) share fingerprints with sweep jobs, so a certification after a warm
// sweep consumes stored outcomes instead of fresh simulations; the engine
// ignores the store for sporadic/boosted cells.
func (cs CertifyJobSpec) run(ctx context.Context, env runEnv) (any, error) {
	cfg := cs.config()
	cfg.Workers = env.workers
	cfg.Observers = env.observers
	cfg.Store = env.store
	return certify.Certify(ctx, cfg)
}

// describe reports the seed budget as the job's cells; early stopping
// legitimately finishes with Done < Total.
func (cs CertifyJobSpec) describe(v *JobView, result any) {
	v.Scenario = cs.Scenario
	v.Certify = &cs
	v.Cells.Total = cs.maxSeeds()
	v.CertifyResult, _ = result.(*certify.Result)
}
