package node

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pubsub"
)

func passthrough(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
	return st, nil, nil
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		node    string
		period  time.Duration
		in, out []pubsub.TopicName
		step    StepFunc
		wantErr bool
	}{
		{"valid", "n", time.Second, []pubsub.TopicName{"a"}, []pubsub.TopicName{"b"}, passthrough, false},
		{"empty name", "", time.Second, nil, nil, passthrough, true},
		{"nil step", "n", time.Second, nil, nil, nil, true},
		{"zero period", "n", 0, nil, nil, passthrough, true},
		{"input output overlap", "n", time.Second, []pubsub.TopicName{"a"}, []pubsub.TopicName{"a"}, passthrough, true},
		{"duplicate input", "n", time.Second, []pubsub.TopicName{"a", "a"}, nil, passthrough, true},
		{"duplicate output", "n", time.Second, nil, []pubsub.TopicName{"b", "b"}, passthrough, true},
		{"empty topic name", "n", time.Second, []pubsub.TopicName{""}, nil, passthrough, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.node, tt.period, tt.in, tt.out, tt.step)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodeAccessors(t *testing.T) {
	n, err := New("mp", 10*time.Millisecond,
		[]pubsub.TopicName{"zz", "aa"},
		[]pubsub.TopicName{"out"},
		passthrough,
		WithPhase(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "mp" {
		t.Errorf("Name = %q", n.Name())
	}
	if n.Period() != 10*time.Millisecond {
		t.Errorf("Period = %v", n.Period())
	}
	if n.Schedule().Phase != 5*time.Millisecond {
		t.Errorf("Phase = %v", n.Schedule().Phase)
	}
	// Inputs are returned sorted and copied.
	in := n.Inputs()
	if !reflect.DeepEqual(in, []pubsub.TopicName{"aa", "zz"}) {
		t.Errorf("Inputs = %v", in)
	}
	in[0] = "mutated"
	if got := n.Inputs()[0]; got != "aa" {
		t.Error("Inputs not copied")
	}
	if !n.SubscribesTo("aa") || n.SubscribesTo("out") {
		t.Error("SubscribesTo wrong")
	}
}

func TestNodeStepValidatesOutputs(t *testing.T) {
	tests := []struct {
		name      string
		out       pubsub.Valuation
		undeclare pubsub.TopicName // the topic the error must name; "" when Step must pass
	}{
		{"undeclared only", pubsub.Valuation{"rogue": 1}, "rogue"},
		// One declared hit must not hide the undeclared key: a check that
		// only counted hits, or only compared sizes, would pass this map.
		{"declared plus undeclared", pubsub.Valuation{"ok": 1, "rogue": 2}, "rogue"},
		{"all declared", pubsub.Valuation{"ok": 1, "also": 2}, ""},
		{"subset declared", pubsub.Valuation{"also": 2}, ""},
		{"nil map", nil, ""},
		{"empty map", pubsub.Valuation{}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, err := New("n", time.Second, nil, []pubsub.TopicName{"ok", "also"},
				func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
					return st, tt.out, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			_, out, err := n.Step(nil, nil)
			if tt.undeclare == "" {
				if err != nil {
					t.Fatalf("Step error = %v, want nil", err)
				}
				if !reflect.DeepEqual(out, tt.out) {
					t.Errorf("Step out = %v, want %v", out, tt.out)
				}
				return
			}
			if err == nil {
				t.Fatal("expected error for publishing on undeclared output topic")
			}
			if want := `undeclared output topic "` + string(tt.undeclare) + `"`; !strings.Contains(err.Error(), want) {
				t.Errorf("Step error = %v, want it to contain %s", err, want)
			}
		})
	}
}

func TestNodeStepPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	n, _ := New("n", time.Second, nil, nil,
		func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
			return nil, nil, boom
		})
	if _, _, err := n.Step(nil, nil); !errors.Is(err, boom) {
		t.Errorf("Step error = %v, want wrapped boom", err)
	}
}

func TestNodeStatefulStep(t *testing.T) {
	n, _ := New("counter", time.Second, nil, []pubsub.TopicName{"count"},
		func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
			c, _ := st.(int)
			return c + 1, pubsub.Valuation{"count": c + 1}, nil
		},
		WithInit(func() State { return 0 }))
	st := n.InitState()
	var out pubsub.Valuation
	var err error
	for i := 1; i <= 3; i++ {
		st, out, err = n.Step(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out["count"].(int) != i {
			t.Errorf("step %d published %v", i, out["count"])
		}
	}
}

func TestSameOutputs(t *testing.T) {
	mk := func(outs ...pubsub.TopicName) *Node {
		return MustNew("n"+string(outs[0]), time.Second, nil, outs, passthrough)
	}
	if !SameOutputs(mk("a", "b"), mk("b", "a")) {
		t.Error("same sets in different order should match")
	}
	if SameOutputs(mk("a"), mk("a", "b")) {
		t.Error("different sizes should not match")
	}
	if SameOutputs(mk("a"), mk("b")) {
		t.Error("different topics should not match")
	}
}

func TestDefaultInitStateIsNil(t *testing.T) {
	n := MustNew("n", time.Second, nil, nil, passthrough)
	if n.InitState() != nil {
		t.Errorf("default init state = %v", n.InitState())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid declaration")
		}
	}()
	MustNew("", time.Second, nil, nil, passthrough)
}
