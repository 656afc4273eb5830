package falsify

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// Params is one point of the falsification search space: a JSON-serializable
// bundle of scenario knobs layered over a base scenario.Spec. The zero value
// of every field means "inherit from the base", so a Params is exactly the
// delta a counterexample needs to carry to be replayed — Apply(base) rebuilds
// the concrete Spec, and the Spec's canonical fingerprint then identifies the
// run. The searchable knobs mirror the scenario.Override axes the sweep
// layers already mutate: switching policy, workspace family, Δ/hysteresis,
// fault/planner-bug/jitter profiles, battery stress.
type Params struct {
	// Policy selects the motion module's switching policy ("always-ac",
	// "sticky-sc:25", ...); empty inherits the base's.
	Policy string `json:"policy,omitempty"`
	// Workspace selects the obstacle-map family by name ("city", "canyon",
	// "corner-hazard"); empty inherits. Only sensible for random-target
	// bases — fixed tours may leave another workspace's free space, so the
	// workspace mutation operator fires only for those.
	Workspace string `json:"workspace,omitempty"`
	// MotionDelta / Hysteresis / PlanMargin are the Remark 3.3 knobs.
	MotionDelta time.Duration `json:"motion_delta_ns,omitempty"`
	Hysteresis  float64       `json:"hysteresis,omitempty"`
	PlanMargin  float64       `json:"plan_margin,omitempty"`
	// FaultLen > 0 replaces the base's fault profile with periodic
	// full-thrust windows [FaultFirst + k·FaultEvery, +FaultLen) in
	// direction FaultDir.
	FaultFirst time.Duration `json:"fault_first_ns,omitempty"`
	FaultEvery time.Duration `json:"fault_every_ns,omitempty"`
	FaultLen   time.Duration `json:"fault_len_ns,omitempty"`
	FaultDir   *geom.Vec3    `json:"fault_dir,omitempty"`
	// PlannerBug injects an RRT* defect ("none", "skip-edge-check",
	// "unchecked-shortcut", "stale-obstacles") at PlannerBugRate.
	PlannerBug     string   `json:"planner_bug,omitempty"`
	PlannerBugRate *float64 `json:"planner_bug_rate,omitempty"`
	// JitterProb / JitterSCOnly are the Section V-D scheduling-outage knobs.
	JitterProb   *float64 `json:"jitter_prob,omitempty"`
	JitterSCOnly *bool    `json:"jitter_sc_only,omitempty"`
	// InitialBattery / DrainMultiple stress the battery layer.
	InitialBattery float64 `json:"initial_battery,omitempty"`
	DrainMultiple  float64 `json:"drain_multiple,omitempty"`
	// Duration overrides the mission horizon (campaigns typically shorten it
	// so the budget buys more executions).
	Duration time.Duration `json:"duration_ns,omitempty"`
	// NoPlannerModule / NoBatteryModule drop RTA layers — the knob that lets
	// a campaign probe what the full stack protects against.
	NoPlannerModule *bool `json:"no_planner_module,omitempty"`
	NoBatteryModule *bool `json:"no_battery_module,omitempty"`
}

// workspaceFactory resolves a workspace family name.
func workspaceFactory(name string) (func() *geom.Workspace, error) {
	switch name {
	case "city":
		return geom.CityWorkspace, nil
	case "canyon":
		return geom.CanyonWorkspace, nil
	case "corner-hazard":
		return geom.CornerHazardWorkspace, nil
	default:
		return nil, fmt.Errorf("falsify: unknown workspace family %q (want city | canyon | corner-hazard)", name)
	}
}

// WorkspaceFamilies lists the mutable workspace family names.
func WorkspaceFamilies() []string { return []string{"city", "canyon", "corner-hazard"} }

// Apply layers the Params over a base Spec and returns the concrete Spec the
// point denotes. The base is not modified. The result is not validated —
// callers filter through Spec.Validate, which is how the search space honours
// the scenario layer's own consistency rules.
func (p Params) Apply(base scenario.Spec) (scenario.Spec, error) {
	s := base.With(scenario.Override{}) // deep-enough copy
	if p.Policy != "" {
		s.SwitchPolicy = p.Policy
	}
	if p.Workspace != "" {
		ws, err := workspaceFactory(p.Workspace)
		if err != nil {
			return scenario.Spec{}, err
		}
		s.Workspace = ws
	}
	if p.MotionDelta > 0 {
		s.MotionDelta = p.MotionDelta
	}
	if p.Hysteresis > 0 {
		s.Hysteresis = p.Hysteresis
	}
	if p.PlanMargin > 0 {
		s.PlanMargin = p.PlanMargin
	}
	if p.FaultLen > 0 {
		dir := geom.V(1, 0, 0)
		if p.FaultDir != nil {
			dir = *p.FaultDir
		}
		s.Faults = scenario.FaultProfile{
			First: p.FaultFirst,
			Every: p.FaultEvery,
			Len:   p.FaultLen,
			Dir:   dir,
		}
	}
	if p.PlannerBug != "" {
		b, ok := plan.ParseBug(p.PlannerBug)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("falsify: unknown planner bug %q", p.PlannerBug)
		}
		s.PlannerBug = b
		if b == plan.BugNone {
			s.PlannerBugRate = 0
		}
	}
	if p.PlannerBugRate != nil {
		s.PlannerBugRate = *p.PlannerBugRate
	}
	if p.JitterProb != nil {
		s.JitterProb = *p.JitterProb
	}
	if p.JitterSCOnly != nil {
		s.JitterSCOnly = *p.JitterSCOnly
	}
	if p.InitialBattery > 0 {
		s.InitialBattery = p.InitialBattery
	}
	if p.DrainMultiple > 0 {
		s.DrainMultiple = p.DrainMultiple
	}
	if p.Duration > 0 {
		s.Duration = p.Duration
	}
	if p.NoPlannerModule != nil {
		s.NoPlannerModule = *p.NoPlannerModule
	}
	if p.NoBatteryModule != nil {
		s.NoBatteryModule = *p.NoBatteryModule
	}
	return s, nil
}

// mutator is one named mutation operator over the search space. Operators
// draw from the engine's campaign RNG, so a mutation sequence is a pure
// function of the campaign seed. Values are rounded to short decimals so
// corpus files and counterexample JSON stay humane.
type mutator struct {
	name string
	// ok reports whether the operator applies to this base (e.g. workspace
	// swaps only make sense for random-target scenarios).
	ok func(base scenario.Spec) bool
	// apply mutates one knob of p.
	apply func(p *Params, pool []string, rng *rand.Rand)
}

// faultDirs is the mutation pool of fault thrust directions.
var faultDirs = []geom.Vec3{
	geom.V(1, 0, 0), geom.V(-1, 0, 0), geom.V(0, 1, 0),
	geom.V(0, -1, 0), geom.V(0, 0, -1), geom.V(0.7, 0.7, 0),
}

// plannerBugs is the mutation pool of injectable RRT* defects.
var plannerBugs = []string{"skip-edge-check", "unchecked-shortcut", "stale-obstacles"}

// motionDeltas is the mutation pool of DM periods Δ.
var motionDeltas = []time.Duration{
	40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond,
	100 * time.Millisecond, 140 * time.Millisecond, 200 * time.Millisecond,
	250 * time.Millisecond,
}

// mutators is the operator catalog. Order matters: operator choice indexes
// into this slice from the campaign RNG, so reordering changes campaigns
// (like reordering a policy registry would change a sweep).
var mutators = []mutator{
	{name: "policy", apply: func(p *Params, pool []string, rng *rand.Rand) {
		p.Policy = pool[rng.Intn(len(pool))]
	}},
	{name: "fault", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.FaultFirst = time.Duration(200+rng.Intn(1800)) * time.Millisecond
		p.FaultEvery = time.Duration(2+rng.Intn(8)) * time.Second
		p.FaultLen = time.Duration(500+rng.Intn(2500)) * time.Millisecond
		d := faultDirs[rng.Intn(len(faultDirs))]
		p.FaultDir = &d
	}},
	{name: "jitter", apply: func(p *Params, _ []string, rng *rand.Rand) {
		prob := round4(0.005 + 0.045*rng.Float64())
		scOnly := rng.Intn(2) == 0
		p.JitterProb, p.JitterSCOnly = &prob, &scOnly
	}},
	{name: "planner-bug", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.PlannerBug = plannerBugs[rng.Intn(len(plannerBugs))]
		rate := round2(0.1 + 0.9*rng.Float64())
		p.PlannerBugRate = &rate
	}},
	{name: "delta", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.MotionDelta = motionDeltas[rng.Intn(len(motionDeltas))]
	}},
	{name: "hysteresis", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.Hysteresis = round1(1.0 + 4.0*rng.Float64())
	}},
	{name: "plan-margin", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.PlanMargin = round2(0.4 + 1.2*rng.Float64())
	}},
	{name: "battery", apply: func(p *Params, _ []string, rng *rand.Rand) {
		p.InitialBattery = round2(0.2 + 0.8*rng.Float64())
		p.DrainMultiple = round1(1 + 39*rng.Float64())
	}},
	{
		name: "workspace",
		ok:   func(base scenario.Spec) bool { return base.RandomTargets },
		apply: func(p *Params, _ []string, rng *rand.Rand) {
			fams := WorkspaceFamilies()
			p.Workspace = fams[rng.Intn(len(fams))]
		},
	},
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
