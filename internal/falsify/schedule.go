package falsify

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/rta"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// The schedule strategy is the systematic-testing backend of the SOTER tool
// chain (Section V, "SOTER tool chain"): instead of mutating scenario
// parameters it enumerates (or, with a parameter, randomly samples)
// node-firing interleavings of the *base* configuration, hunting for
// schedules under which φInv fails or the drone crashes. Each explored
// schedule costs one budget unit; counterexamples carry the choice vector
// that replays the exact interleaving.
//
// Since a SOTER program is a multi-rate periodic system, only schedules
// satisfying bounded-asynchrony semantics are explored: time advances in
// rounds, and within a round every node fires exactly once, in any order —
// the scheduler enumerates (or samples) the per-round permutations.
//
// Executions are replay-based: systems carry arbitrary local state and
// plant environments, so instead of snapshotting configurations the engine
// re-runs a fresh system instance per schedule, driving choice points from a
// choice vector. Exhaustive mode enumerates choice vectors in lexicographic
// order (a stateless DFS); random mode samples one schedule per seed.

// ScheduleReport is the engine-facing account of a schedule exploration:
// schedule count plus violations already classified into verdicts.
type ScheduleReport struct {
	// Schedules is the number of interleavings executed.
	Schedules int
	// Exhausted reports that the bounded schedule tree was fully visited
	// before the budget ran out.
	Exhausted bool
	// Violations lists the falsifying interleavings.
	Violations []ScheduleViolation
}

// ScheduleViolation is one falsifying interleaving.
type ScheduleViolation struct {
	// Choices is the full choice vector; replaying it reproduces the
	// schedule exactly.
	Choices []int
	// Seed is the random-interleaving seed it was sampled from (provenance;
	// zero in exhaustive mode).
	Seed int64
	// Verdict classifies the violation (crash vs invariant).
	Verdict Verdict
}

// scheduleStrategy is "schedule" (exhaustive bounded-asynchrony DFS) or
// "schedule:N" (N random interleaving seeds).
type scheduleStrategy struct{ seeds int }

func (s scheduleStrategy) Name() string {
	if s.seeds > 0 {
		return fmt.Sprintf("schedule:%d", s.seeds)
	}
	return "schedule"
}

func (s scheduleStrategy) Search(ctx context.Context, e *Engine) error {
	spec := e.Base()
	x, err := newExplorer(scenarioInstance(spec, e.CampaignSeed()), spec.Duration)
	if err != nil {
		return err
	}
	var rep *ScheduleReport
	if s.seeds > 0 {
		rep, err = x.random(ctx, e.CampaignSeed(), min(s.seeds, e.Remaining()))
	} else {
		rep, err = x.exhaustive(ctx, e.Remaining())
	}
	if rep != nil {
		e.ReportSchedules(rep)
	}
	// Exhaustive mode may visit the whole bounded tree below budget; that
	// ends the search (there is nothing left to explore), not an error.
	return err
}

// scheduleInstance is a freshly built system under test: the explorer needs
// a new one per execution because node-local and environment state is not
// resettable.
type scheduleInstance struct {
	system *rta.System
	// env is the optional environment hook (plant in the loop).
	env runtime.Environment
	// envTopics declares environment-input topics with defaults.
	envTopics []pubsub.Topic
	// property is an optional safety property checked after every discrete
	// step; returning an error marks a violation. The executor's built-in
	// φInv monitor runs in addition.
	property func(exec *runtime.Executor) error
}

// instanceBuilder constructs a fresh instance; it is called once per
// schedule. scenarioInstance is the production builder; tests substitute
// hand-built systems.
type instanceBuilder func() (*scheduleInstance, error)

// maxPermutation caps the branching at a choice point: with k nodes firing
// at an instant there are k! interleavings; only the first maxPermutation
// are explored.
const maxPermutation = 720

// explorer runs schedules of one system up to a horizon. newExplorer is the
// single place the builder and horizon are validated, for search and replay
// alike.
type explorer struct {
	build   instanceBuilder
	horizon time.Duration
}

func newExplorer(build instanceBuilder, horizon time.Duration) (explorer, error) {
	if build == nil {
		return explorer{}, errors.New("falsify: schedule: nil builder")
	}
	if horizon <= 0 {
		return explorer{}, errors.New("falsify: schedule: non-positive horizon")
	}
	return explorer{build: build, horizon: horizon}, nil
}

// exhaustive enumerates choice vectors in lexicographic order, at most
// maxSchedules of them. Cancelling the context stops the search at the next
// schedule boundary: the partial report accumulated so far is returned
// together with the context's error, so an interrupted hunt keeps the
// counterexamples it already found.
func (x explorer) exhaustive(ctx context.Context, maxSchedules int) (*ScheduleReport, error) {
	rep := &ScheduleReport{}
	prefix := []int{}
	for rep.Schedules < maxSchedules {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		tr, err := x.execute(prefix, nil)
		if err != nil {
			return nil, err
		}
		rep.Schedules++
		if tr.violation != nil {
			rep.Violations = append(rep.Violations, *tr.violation)
		}
		// Lexicographic increment of the full choice vector.
		next := nextVector(tr.chosen, tr.branching)
		if next == nil {
			rep.Exhausted = true
			return rep, nil
		}
		prefix = next
	}
	return rep, nil
}

// random samples one schedule per seed, seeds firstSeed, firstSeed+1, ...
// for n seeds. Cancellation behaves as in exhaustive.
func (x explorer) random(ctx context.Context, firstSeed int64, n int) (*ScheduleReport, error) {
	rep := &ScheduleReport{}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		seed := firstSeed + int64(i)
		tr, err := x.execute(nil, newSplitMix(seed))
		if err != nil {
			return nil, err
		}
		rep.Schedules++
		if tr.violation != nil {
			v := *tr.violation
			v.Seed = seed
			rep.Violations = append(rep.Violations, v)
		}
	}
	return rep, nil
}

// replay re-executes one recorded schedule: the choice vector drives every
// choice point (points beyond its end, if any, pick index 0) and the
// violation it reproduces is returned — nil when the schedule completes
// cleanly, which callers should treat as "the counterexample no longer
// reproduces".
func (x explorer) replay(choices []int) (*ScheduleViolation, error) {
	tr, err := x.execute(choices, nil)
	if err != nil {
		return nil, err
	}
	return tr.violation, nil
}

// nextVector returns the lexicographically next choice vector, or nil when
// the tree is exhausted.
func nextVector(chosen, branching []int) []int {
	i := len(chosen) - 1
	for i >= 0 && chosen[i]+1 >= branching[i] {
		i--
	}
	if i < 0 {
		return nil
	}
	next := make([]int, i+1)
	copy(next, chosen[:i+1])
	next[i]++
	return next
}

type trace struct {
	chosen    []int
	branching []int
	violation *ScheduleViolation
}

// execute runs one schedule: choice points beyond the prefix pick index 0
// (exhaustive) or a random index (random mode, rng non-nil).
func (x explorer) execute(prefix []int, rng *splitMix) (*trace, error) {
	inst, err := x.build()
	if err != nil {
		return nil, fmt.Errorf("falsify: schedule: build: %w", err)
	}
	tr := &trace{}

	order := func(_ time.Duration, firing []string) []string {
		b := branchingOf(len(firing), maxPermutation)
		var choice int
		switch {
		case len(tr.chosen) < len(prefix):
			choice = prefix[len(tr.chosen)]
			if choice >= b {
				choice = b - 1
			}
		case rng != nil:
			choice = int(rng.next() % uint64(b))
		default:
			choice = 0
		}
		tr.chosen = append(tr.chosen, choice)
		tr.branching = append(tr.branching, b)
		return permute(firing, choice)
	}

	opts := []runtime.Option{
		runtime.WithScheduleOrder(order),
		runtime.WithInvariantChecking(),
	}
	if inst.env != nil {
		opts = append(opts, runtime.WithEnvironment(inst.env))
	}
	exec, err := runtime.New(inst.system, inst.envTopics, opts...)
	if err != nil {
		return nil, fmt.Errorf("falsify: schedule: executor: %w", err)
	}

	for exec.Now() <= x.horizon {
		progressed, err := exec.Step()
		if err == nil && progressed && inst.property != nil {
			err = inst.property(exec)
		}
		if err != nil {
			tr.violation = &ScheduleViolation{
				Choices: append([]int(nil), tr.chosen...),
				Verdict: classify(err, exec.Now()),
			}
			return tr, nil
		}
		if !progressed || exec.Now() > x.horizon {
			break
		}
	}
	return tr, nil
}

// classify files a failed schedule: an executor φInv abort is an invariant
// violation, anything else is the crash property tripping at time t.
func classify(err error, t time.Duration) Verdict {
	var iv *runtime.InvariantViolationError
	if errors.As(err, &iv) {
		return Verdict{InvariantViolations: 1}
	}
	return Verdict{Crashed: true, Collisions: 1, CrashTime: int64(t)}
}

// branchingOf returns min(k!, cap) without overflow.
func branchingOf(k, permCap int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
		if f >= permCap {
			return permCap
		}
	}
	return f
}

// permute returns the idx-th permutation (factorial number system) of the
// slice, leaving the input unmodified.
func permute(s []string, idx int) []string {
	out := make([]string, 0, len(s))
	rem := append([]string(nil), s...)
	for n := len(rem); n > 0; n-- {
		f := factorial(n - 1)
		i := 0
		if f > 0 {
			i = (idx / f) % n
		}
		out = append(out, rem[i])
		rem = append(rem[:i], rem[i+1:]...)
	}
	return out
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > 1<<30 {
			return 1 << 30
		}
	}
	return f
}

// splitMix is a tiny deterministic PRNG for schedule sampling.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix {
	return &splitMix{s: uint64(seed)*2685821657736338717 + 1}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scenarioInstance compiles a scenario Spec into the explorer's
// per-schedule instance factory: a fresh mission stack, a plant-in-the-loop
// environment and the no-crash property. This is what lets the systematic
// tester run *any* registered scenario rather than one hand-built system;
// the schedule strategy and counterexample replay both build through it.
func scenarioInstance(spec scenario.Spec, seed int64) instanceBuilder {
	return func() (*scheduleInstance, error) {
		cfg, err := spec.StackConfig(seed)
		if err != nil {
			return nil, err
		}
		st, err := mission.Build(cfg)
		if err != nil {
			return nil, err
		}
		drone, err := plant.NewDrone(cfg.PlantParams, seed)
		if err != nil {
			return nil, err
		}
		ws := st.Config.Workspace
		battery := spec.InitialBattery
		if battery == 0 {
			battery = 1
		}
		state := plant.State{Pos: spec.StartPos(), Battery: battery}
		env := runtime.EnvironmentFunc(func(prev, now time.Duration, topics *pubsub.Store) error {
			for t := prev; t < now; {
				dt := 5 * time.Millisecond
				if t+dt > now {
					dt = now - t
				}
				cmd := geom.Vec3{}
				if raw, err := topics.Get(mission.TopicCmd); err == nil && raw != nil {
					if v, ok := raw.(geom.Vec3); ok {
						cmd = v
					}
				}
				state = drone.Step(state, cmd, dt)
				t += dt
			}
			return topics.Set(mission.TopicDroneState, state)
		})
		property := func(exec *runtime.Executor) error {
			if plant.Crashed(state, ws) {
				return fmt.Errorf("crash at t=%v pos=%v", exec.Now(), state.Pos)
			}
			return nil
		}
		return &scheduleInstance{
			system:    st.System,
			env:       env,
			envTopics: []pubsub.Topic{{Name: mission.TopicDroneState, Default: state}},
			property:  property,
		}, nil
	}
}
