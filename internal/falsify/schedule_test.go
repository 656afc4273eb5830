package falsify

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/pubsub"
	"repro/internal/rta"
	"repro/internal/runtime"
)

// newTestEngine builds an engine around the planted base for direct
// accounting tests.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReportSchedulesAccounting(t *testing.T) {
	base := plantedScenario(t)
	e := newTestEngine(t, Config{Scenario: base, Strategy: "schedule", Seed: 1, Budget: 64})

	crash := ScheduleViolation{
		Choices: []int{0, 2, 1},
		Verdict: Verdict{Crashed: true, Collisions: 1, CrashTime: int64(30 * time.Millisecond)},
	}
	inv := ScheduleViolation{
		Choices: []int{1, 0, 0},
		Seed:    7,
		Verdict: Verdict{InvariantViolations: 1},
	}
	e.ReportSchedules(&ScheduleReport{Schedules: 10, Violations: []ScheduleViolation{crash, inv}})

	if e.Remaining() != 54 {
		t.Errorf("remaining = %d, want 54 (10 schedules spent)", e.Remaining())
	}
	res := e.Result()
	if res.Executions != 10 || len(res.Counterexamples) != 2 {
		t.Fatalf("executions=%d counterexamples=%d", res.Executions, len(res.Counterexamples))
	}
	// Crash outranks invariant.
	top, second := res.Counterexamples[0], res.Counterexamples[1]
	if top.Category != CategoryCrash || second.Category != CategoryInvariant {
		t.Errorf("ranking: %q then %q", top.Category, second.Category)
	}
	if len(top.Schedule) != 3 || top.Fingerprint == "" || top.Name != "" {
		t.Errorf("schedule counterexample malformed: %+v", top)
	}
	if second.ScheduleSeed != 7 {
		t.Errorf("random-mode provenance seed lost: %+v", second)
	}

	// Re-reporting the same choice vector is deduplicated, but still costs
	// budget (the schedule did run).
	e.ReportSchedules(&ScheduleReport{Schedules: 3, Violations: []ScheduleViolation{crash}})
	res = e.Result()
	if res.Executions != 13 || len(res.Counterexamples) != 2 {
		t.Errorf("after duplicate report: executions=%d counterexamples=%d", res.Executions, len(res.Counterexamples))
	}
}

func TestScheduleFingerprintDistinguishesVectors(t *testing.T) {
	a := scheduleFingerprint("base", []int{0, 1, 2})
	b := scheduleFingerprint("base", []int{0, 1, 3})
	c := scheduleFingerprint("other", []int{0, 1, 2})
	if a == b || a == c {
		t.Errorf("fingerprint collisions: %s %s %s", a, b, c)
	}
	if a != scheduleFingerprint("base", []int{0, 1, 2}) {
		t.Error("fingerprint not deterministic")
	}
}

// The schedule strategy spends its budget on real interleavings of the base
// scenario and is deterministic like every other strategy.
func TestScheduleStrategyDeterministicSpend(t *testing.T) {
	base := plantedScenario(t)
	off := true
	cfg := Config{
		Scenario: base,
		Strategy: "schedule",
		Seed:     1,
		Budget:   4,
		Duration: 500 * time.Millisecond,
		// Fewer modules, tractable branching.
		Base: Params{NoPlannerModule: &off, NoBatteryModule: &off},
	}
	var want []byte
	for i := 0; i < 2; i++ {
		res, err := Campaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Executions == 0 || res.Executions > res.Budget {
			t.Fatalf("executions = %d of budget %d", res.Executions, res.Budget)
		}
		if res.Strategy != "schedule" {
			t.Errorf("strategy = %q", res.Strategy)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("schedule campaign not deterministic:\n got %s\nwant %s", got, want)
		}
	}
}

// A schedule:N campaign derives its interleaving seeds on the fly and stops
// at the budget, so a huge N costs nothing up front: budget 2 runs exactly
// two schedules.
func TestScheduleStrategyHugeSeedCountHonoursBudget(t *testing.T) {
	res, err := Campaign(context.Background(), Config{
		Scenario: "corner-hazard-tour",
		Strategy: "schedule:4000000000",
		Seed:     1,
		Budget:   2,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 2 || res.Strategy != "schedule:4000000000" {
		t.Errorf("executions = %d, strategy = %q; want 2 schedules of schedule:4000000000", res.Executions, res.Strategy)
	}
}

// A schedule counterexample found on a registered scenario replays through
// Counterexample.Replay: the same choice vector yields the same verdict on
// every replay, and a tampered vector is refused as fingerprint drift
// rather than silently replayed as a different interleaving.
func TestScheduleCounterexampleReplay(t *testing.T) {
	off := true
	dir := geom.V(1, 0.4, 0)
	res, err := Campaign(context.Background(), Config{
		Scenario: "canyon-corridor",
		Strategy: "schedule:4",
		Seed:     1,
		Budget:   4,
		Duration: 4 * time.Second,
		// One long full-thrust fault window drives the canyon's φInv
		// monitor to a violation under sampled interleavings.
		Base: Params{
			NoPlannerModule: &off, NoBatteryModule: &off,
			FaultFirst: 300 * time.Millisecond, FaultEvery: time.Minute,
			FaultLen: 3 * time.Second, FaultDir: &dir,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) == 0 {
		t.Fatal("no schedule counterexample to replay")
	}
	ce := res.Counterexamples[0]
	if len(ce.Schedule) == 0 || ce.Name != "" {
		t.Fatalf("not a schedule counterexample: %+v", ce)
	}
	first, err := ce.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ce.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("replays disagree: %+v vs %+v", first, second)
	}
	if first != ce.Verdict {
		t.Errorf("replay verdict %+v, filed with %+v", first, ce.Verdict)
	}
	tampered := ce
	tampered.Schedule = slices.Clone(ce.Schedule)
	tampered.Schedule[0]++
	if _, err := tampered.Replay(context.Background()); err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Errorf("tampered schedule replayed: %v", err)
	}
}

// buildToggleSystem builds a module whose safety depends on the interleaving
// of two writer nodes racing on the monitored topic: writer "bad" publishes
// danger=true, writer "good" publishes danger=false, both every 10ms. The
// module's φsafe is ¬danger at DM sampling instants, so schedules where
// "bad" fires after "good" at a sampling instant violate φInv — exactly the
// class of interleaving bugs the paper's systematic-testing backend hunts.
func buildToggleSystem() (*scheduleInstance, error) {
	writer := func(name string, val bool) (*node.Node, error) {
		return node.New(name, 10*time.Millisecond, nil, []pubsub.TopicName{"danger/" + pubsub.TopicName(name)},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				return st, pubsub.Valuation{"danger/" + pubsub.TopicName(name): val}, nil
			})
	}
	// A combiner that ORs the two writers... to keep the race observable we
	// instead have both writers publish on their own topic and the module
	// monitor the one written LAST via a shared mailbox node.
	mailbox, err := node.New("mailbox", 10*time.Millisecond,
		[]pubsub.TopicName{"danger/bad", "danger/good"}, []pubsub.TopicName{"danger"},
		func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			bad, _ := in["danger/bad"].(bool)
			return st, pubsub.Valuation{"danger": bad}, nil
		})
	if err != nil {
		return nil, err
	}

	bad, err := writer("bad", true)
	if err != nil {
		return nil, err
	}
	good, err := writer("good", false)
	if err != nil {
		return nil, err
	}
	// AC and SC both idle; the module just monitors.
	mkCtrl := func(name string) (*node.Node, error) {
		return node.New(name, 10*time.Millisecond, []pubsub.TopicName{"danger/bad"}, []pubsub.TopicName{"cmd"},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				return st, nil, nil
			})
	}
	ac, err := mkCtrl("m.ac")
	if err != nil {
		return nil, err
	}
	sc, err := mkCtrl("m.sc")
	if err != nil {
		return nil, err
	}
	mod, err := rta.NewModule(rta.Decl{
		Name:  "m",
		AC:    ac,
		SC:    sc,
		Delta: 10 * time.Millisecond,
		TTF2Delta: func(v pubsub.Valuation) bool {
			b, _ := v["danger"].(bool)
			return b
		},
		InSafer: func(v pubsub.Valuation) bool {
			b, _ := v["danger"].(bool)
			return !b
		},
		// φsafe fails when the DM samples danger=true — which happens only
		// under schedules where "bad" fired after "good" in the PREVIOUS
		// round (the mailbox reads topics before this round's writers).
		Safe: func(v pubsub.Valuation) bool {
			b, _ := v["danger"].(bool)
			return !b
		},
		Monitored: []pubsub.TopicName{"danger"},
		DMPhase:   10 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	sys, err := rta.NewSystem([]*rta.Module{mod}, []*node.Node{bad, good, mailbox})
	if err != nil {
		return nil, err
	}
	return &scheduleInstance{system: sys}, nil
}

// soloSystem is a one-node system: every choice point has branching 1, so
// its schedule tree has exactly one schedule.
func soloSystem(property func(*runtime.Executor) error) instanceBuilder {
	return func() (*scheduleInstance, error) {
		n, err := node.New("solo", 10*time.Millisecond, nil, []pubsub.TopicName{"t"},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				return st, pubsub.Valuation{"t": 1}, nil
			})
		if err != nil {
			return nil, err
		}
		sys, err := rta.NewSystem(nil, []*node.Node{n})
		if err != nil {
			return nil, err
		}
		return &scheduleInstance{system: sys, property: property}, nil
	}
}

func mustExplorer(t *testing.T, build instanceBuilder, horizon time.Duration) explorer {
	t.Helper()
	x, err := newExplorer(build, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestExhaustiveFindsInterleavingViolation(t *testing.T) {
	x := mustExplorer(t, buildToggleSystem, 50*time.Millisecond)
	rep, err := x.exhaustive(context.Background(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("exhaustive exploration missed the schedule-dependent violation")
	}
	if rep.Schedules == 0 || rep.Schedules > 4000 {
		t.Errorf("report = %+v", rep)
	}
	// The toggle fixture fails φInv: an executor invariant abort files as
	// an invariant violation, never as a crash.
	v := rep.Violations[0]
	if want := (Verdict{InvariantViolations: 1}); v.Verdict != want || v.Seed != 0 {
		t.Fatalf("violation = %+v, want verdict %+v and no seed", v, want)
	}
	// The counterexample replays: re-running its exact choice vector
	// reproduces the same violation.
	tr, err := x.execute(v.Choices, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.violation == nil || !reflect.DeepEqual(*tr.violation, v) {
		t.Fatalf("replay did not reproduce the violation: %+v", tr.violation)
	}
}

// replay is the entry point counterexample replay uses: feeding a
// violation's choice vector back must reproduce the violation
// deterministically, and a vector from a safe run must come back clean.
func TestReplaySchedule(t *testing.T) {
	x := mustExplorer(t, buildToggleSystem, 50*time.Millisecond)
	rep, err := x.exhaustive(context.Background(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to replay")
	}
	want := rep.Violations[0]
	got, err := x.replay(want.Choices)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("replay no longer reproduces the violation")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("replay diverged: got %+v, want %+v", got, want)
	}
	// The identity schedule (all zero choices) is the default firing order —
	// on the safe single-node system it must replay clean.
	clean, err := mustExplorer(t, soloSystem(nil), 50*time.Millisecond).replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean != nil {
		t.Errorf("safe system replayed as violating: %+v", clean)
	}
}

func TestRandomModeFindsViolation(t *testing.T) {
	x := mustExplorer(t, buildToggleSystem, 50*time.Millisecond)
	rep, err := x.random(context.Background(), 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != 60 {
		t.Errorf("schedules = %d, want one per seed (60)", rep.Schedules)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("random exploration missed the violation across 60 seeds")
	}
	v := rep.Violations[0]
	if v.Seed < 1 || v.Seed > 60 {
		t.Errorf("random violation should record its seed, got %d", v.Seed)
	}
	if want := (Verdict{InvariantViolations: 1}); v.Verdict != want {
		t.Errorf("verdict = %+v, want %+v", v.Verdict, want)
	}
	// The recorded choice vector replays the sampled schedule without the
	// seed.
	got, err := x.replay(v.Choices)
	if err != nil || got == nil || got.Verdict != v.Verdict {
		t.Errorf("replay of seed %d = %+v, %v", v.Seed, got, err)
	}
}

func TestExhaustiveTerminatesOnSafeSystem(t *testing.T) {
	x := mustExplorer(t, soloSystem(nil), 100*time.Millisecond)
	rep, err := x.exhaustive(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted || rep.Schedules != 1 || len(rep.Violations) != 0 {
		t.Errorf("report = %+v", rep)
	}
}

// A failing property — the production builder's no-crash check — files as
// a crash at the time the property first failed.
func TestPropertyHook(t *testing.T) {
	property := func(exec *runtime.Executor) error {
		if exec.Now() >= 30*time.Millisecond {
			return fmt.Errorf("custom property failed")
		}
		return nil
	}
	x := mustExplorer(t, soloSystem(property), 100*time.Millisecond)
	rep, err := x.exhaustive(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := Verdict{Crashed: true, Collisions: 1, CrashTime: int64(30 * time.Millisecond)}
	if len(rep.Violations) != 1 || rep.Violations[0].Verdict != want {
		t.Errorf("violations = %+v, want one with verdict %+v", rep.Violations, want)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := newExplorer(nil, time.Second); err == nil {
		t.Error("nil builder accepted")
	}
	if _, err := newExplorer(buildToggleSystem, 0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestPermute(t *testing.T) {
	s := []string{"a", "b", "c"}
	var got []string
	seen := map[string]bool{}
	for idx := 0; idx < 6; idx++ {
		got = permute(s, idx)
		if len(got) != 3 {
			t.Fatalf("permute(%d) = %v", idx, got)
		}
		key := fmt.Sprint(got)
		if seen[key] {
			t.Fatalf("permutation %d repeated %v", idx, got)
		}
		seen[key] = true
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, s) {
			t.Fatalf("permute(%d) = %v is not a permutation", idx, got)
		}
	}
	// Index 0 is the identity.
	if !reflect.DeepEqual(permute(s, 0), s) {
		t.Error("permute(0) is not the identity")
	}
	// The input is not modified.
	if !reflect.DeepEqual(s, []string{"a", "b", "c"}) {
		t.Error("permute mutated its input")
	}
}

func TestNextVector(t *testing.T) {
	tests := []struct {
		chosen, branching, want []int
	}{
		{[]int{0, 0}, []int{2, 2}, []int{0, 1}},
		{[]int{0, 1}, []int{2, 2}, []int{1}},
		{[]int{1, 1}, []int{2, 2}, nil},
		{nil, nil, nil},
		{[]int{0, 2, 0}, []int{1, 3, 1}, []int{0, 2, 0}[0:0]}, // increment impossible at tail → nil? see below
	}
	for i, tt := range tests[:4] {
		got := nextVector(tt.chosen, tt.branching)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("case %d: nextVector = %v, want %v", i, got, tt.want)
		}
	}
	// Branching-1 positions can never be incremented.
	if got := nextVector([]int{0, 2, 0}, []int{1, 3, 1}); got != nil {
		t.Errorf("saturated vector incremented to %v", got)
	}
}

func TestBranchingOf(t *testing.T) {
	for k, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24} {
		if got := branchingOf(k, 720); got != want {
			t.Errorf("branchingOf(%d) = %d, want %d", k, got, want)
		}
	}
	if got := branchingOf(10, 100); got != 100 {
		t.Errorf("cap not applied: %d", got)
	}
}
