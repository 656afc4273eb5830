package service

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// sweepJob is a JobSpec resolved at submit: the effective spec with the
// overrides folded in, the seed sweep and the per-seed store keys.
type sweepJob struct {
	spec     JobSpec
	resolved scenario.Spec
	seeds    []int64
	keys     []string // aligned with seeds
}

func (sj *sweepJob) workerBound() int { return sj.spec.Workers }

// run executes the sweep over the fleet engine with every cell routed
// through the result store's cell protocol. A miss elects this mission the
// fill leader (it simulates and finishes the fill in OnResult), while a
// concurrent identical cell — in this job or any other — blocks on the
// leader and shares its verdict. Determinism makes the wait safe: whatever
// the leader produces is exactly what the waiter's own simulation would have
// produced.
func (sj *sweepJob) run(ctx context.Context, env runEnv) (any, error) {
	// fills[i] is written by mission i's Reuse call and consumed by the same
	// worker goroutine's OnResult call; distinct indices never share an
	// element, so the slice needs no lock.
	fills := make([]*store.Fill, len(sj.seeds))
	rep := fleet.Run(ctx, sj.missions(env.observers), fleet.Options{
		Workers: env.workers,
		Reuse: func(i int, m fleet.Mission) (fleet.MissionResult, bool) {
			p, ok, fill := env.store.Lookup(ctx, sj.keys[i])
			fills[i] = fill
			return fleet.MissionResult{Metrics: p.Metrics, Switches: p.Switches}, ok
		},
		OnResult: func(i int, m fleet.Mission, res fleet.MissionResult) {
			fills[i].Finish(ctx, store.Payload{Metrics: res.Metrics, Switches: res.Switches}, res.Err)
			env.progress.cell(res.Cached)
		},
	})
	return reportView(rep, sj.policyName()), rep.FirstErr()
}

// missions expands the sweep into fleet missions, with the job's observers
// attached to every mission.
func (sj *sweepJob) missions(observers []obs.Observer) []fleet.Mission {
	missions := make([]fleet.Mission, len(sj.seeds))
	for i, seed := range sj.seeds {
		seed := seed
		missions[i] = fleet.Mission{
			Name: fmt.Sprintf("%s/seed-%d", sj.resolved.Name, seed),
			Seed: seed,
			Build: func() (sim.RunConfig, error) {
				cfg, err := sj.resolved.Build(seed)
				if err != nil {
					return cfg, err
				}
				cfg.Observers = append(cfg.Observers, observers...)
				return cfg, nil
			},
		}
	}
	return missions
}

func (sj *sweepJob) describe(v *JobView, result any) {
	v.Scenario = sj.spec.Scenario
	v.Spec = sj.spec
	v.Cells.Total = len(sj.seeds)
	v.Report, _ = result.(*ReportView)
}

// policyName is the canonical switching-policy spec of the resolved scenario
// ("soter-fig9" unless overridden).
func (sj *sweepJob) policyName() string {
	name, err := rta.CanonicalPolicySpec(sj.resolved.SwitchPolicy)
	if err != nil {
		// The spec was registry-validated at submit; an error here can only
		// mean the policy was unregistered since — fall back to the raw spec.
		return sj.resolved.SwitchPolicy
	}
	return name
}
