package falsify

import (
	"slices"
	"testing"
)

// The strategy set is closed: exactly these three, sorted — the list
// GET /falsify/strategies and the soter-falsify help text print.
func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	if want := []string{"guided", "random", "schedule"}; !slices.Equal(names, want) {
		t.Errorf("StrategyNames() = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if StrategyNames()[0] != "guided" {
		t.Error("StrategyNames returned the shared backing slice")
	}
}

func TestParseStrategy(t *testing.T) {
	good := map[string]string{
		"":           DefaultStrategyName,
		"random":     "random",
		"guided":     "guided:8",
		"guided:4":   "guided:4",
		"schedule":   "schedule",
		"schedule:3": "schedule:3",
	}
	for spec, wantName := range good {
		s, err := ParseStrategy(spec)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", spec, err)
			continue
		}
		if s.Name() != wantName {
			t.Errorf("ParseStrategy(%q).Name() = %q, want %q", spec, s.Name(), wantName)
		}
		if canon, err := CanonicalStrategySpec(spec); err != nil || canon != wantName {
			t.Errorf("CanonicalStrategySpec(%q) = %q, %v", spec, canon, err)
		}
	}
	bad := []string{
		"annealing",  // unregistered
		"random:3",   // random takes no parameter
		"guided:0",   // zero parameter
		"guided:-2",  // negative parameter
		"guided:x",   // non-numeric parameter
		"guided:4:4", // too many colons
		" guided",    // whitespace is not trimmed
	}
	for _, spec := range bad {
		if _, err := ParseStrategy(spec); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", spec)
		}
	}
	// The error texts callers see are part of the interface.
	for spec, want := range map[string]string{
		"annealing":  `unknown strategy "annealing" (have: guided, random, schedule)`,
		"random:3":   `strategy "random" takes no parameter`,
		"schedule:0": `strategy spec "schedule:0": parameter "0" must be a positive integer`,
	} {
		if _, err := ParseStrategy(spec); err == nil || err.Error() != want {
			t.Errorf("ParseStrategy(%q) error = %v, want %q", spec, err, want)
		}
	}
}
