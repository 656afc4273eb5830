package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttributeSyntheticStacks(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		// Innermost repo frame wins.
		{[]string{"repro/internal/geom.(*Workspace).Clearance", "repro/internal/plan.(*RRTStar).Plan", "repro/internal/fleet.runOne"}, "geom"},
		// Stdlib and Go runtime frames count toward their repo caller.
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/plan.(*RRTStar).near", "repro/internal/sim.Run"}, "plan"},
		{[]string{"sync.(*Mutex).Lock", "repro/internal/pubsub.(*Store).SetID", "repro/internal/runtime.(*Executor).Run"}, "pubsub"},
		// Closures and generic instantiations keep their package.
		{[]string{"repro/internal/fleet.Map[go.shape.struct { Name string }].func1"}, "fleet"},
		{[]string{"encoding/json.Marshal", "repro/internal/service.(*Server).Handler.func3", "net/http.HandlerFunc.ServeHTTP"}, "service"},
		// The benchmark's own frames.
		{[]string{"net/http.(*Client).Do", "main.(*client).exec", "main.(*client).runJobs.func1"}, "bench"},
		// A repro/internal package outside the list.
		{[]string{"repro/internal/explore.Run"}, "other"},
		// No repo frame at all.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "go-bg"},
		{nil, "go-bg"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestCPUByLayerSums(t *testing.T) {
	got := CPUByLayer([]Sample{
		{Stack: []string{"repro/internal/plan.f"}, Nanos: 10},
		{Stack: []string{"runtime.memmove", "repro/internal/plan.g"}, Nanos: 5},
		{Stack: []string{"runtime.gcBgMarkWorker"}, Nanos: 7},
	})
	if got["plan"] != 15 || got["go-bg"] != 7 || len(got) != 2 {
		t.Fatalf("CPUByLayer = %v, want plan=15 go-bg=7", got)
	}
}

var sink float64

// spinForProfile burns CPU so the profiler has samples to take.
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.0000001
		}
	}
}

func TestParseCPUProfileOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := ParseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.Nanos
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.Nanos
				break
			}
		}
	}
	// Under the race detector much of the time lands in its C runtime, so
	// only ask that the spinning frame was found with its CPU time.
	if total <= 0 || spin <= 0 {
		t.Fatalf("parsed %d samples, %d ns total, %d ns in spinForProfile", len(samples), total, spin)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseCPUProfile([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated message parsed without error")
	}
}
