package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// goldenRuns pins closed-loop behaviour absolutely: each entry is a registry
// spec run at a fixed seed and duration, with the SHA-256 of its full JSONL
// event stream (every kind), of json.Marshal(Result.Switches) and of
// json.Marshal(Result.Metrics). A refactor of the executor, the simulator or
// the observer layer must leave all three unchanged; a deliberate behaviour
// change recomputes them (the failure message prints the new values).
var goldenRuns = []struct {
	spec     string
	seed     int64
	duration time.Duration
	monitor  bool // install the runtime φInv monitor
	stream   string
	switches string
	metrics  string
}{
	{spec: "surveillance-city", seed: 3, duration: 15 * time.Second,
		stream:   "e720adf798211343b5cccd8de89fee62e8808bfe86915c0545f700b8213ff51c",
		switches: "6d093b96c55b1c1e9c32995e2591dd55720c0ee499b8c0918e3870e197d8d699",
		metrics:  "6dfd3e05733050e097faf1a450a9d9ecb313dad66431eaf81704cc4874080a91"},
	{spec: "canyon-corridor", seed: 5, duration: 15 * time.Second, monitor: true,
		stream:   "e7d0270965c85d9d7de820b040917f725468ced8322c3d0ab5ce86ec4db6faa9",
		switches: "fcd3a02a3ed211803ef5fd7ec5c73bd22ef2fffe2957f25b45eeacca32ccd531",
		metrics:  "e5bc0ac0ebf6d7073a2a68daf11282077c27e26851b1459c3048ad2e3f49b203"},
	{spec: "jitter-storm", seed: 2, duration: 20 * time.Second,
		stream:   "789034ca8b34013b66ab3541bcbf0115b9659200fac4033508a8bf977854628a",
		switches: "4bdcfa67bb24a66b8494e2b1da7c65340f30fbcb2e921f02c7aee58d27f39a14",
		metrics:  "783f8fb7aa01aa8d095b213f621fd34e6c764cc137a280a006cedea8b4c4f1e3"},
	{spec: "corner-hazard-tour", seed: 1, duration: 20 * time.Second,
		stream:   "d165041eb02bd21833d54ba04f5be94647087a9130d5ce0597eaf584517cbab5",
		switches: "57d724982bbddd97831465d28dc5affd5e679c3c47b6e678655e4bfbf0fa37c7",
		metrics:  "3b866cfb44e2ad2f4fc6d5782a31ee869dd0a903a7f819a90c07809616cef847"},
}

func TestClosedLoopGolden(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.spec, func(t *testing.T) {
			s := MustGet(g.spec)
			s.Duration = g.duration
			s.InvariantMonitor = g.monitor
			rcfg, err := s.Build(g.seed)
			if err != nil {
				t.Fatal(err)
			}
			stream := sha256.New()
			w := obs.NewJSONLWriter(stream)
			rcfg.Observers = append(rcfg.Observers, w)
			res, err := sim.Run(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if len(res.Switches) == 0 {
				t.Fatal("run never switched; the switch-log pin is vacuous")
			}
			if s.JitterProb > 0 && res.Metrics.DroppedFirings == 0 {
				t.Fatal("jitter run dropped no firing; the jitter pin is vacuous")
			}
			check := func(what, want, got string) {
				if got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			check("event stream", g.stream, hex.EncodeToString(stream.Sum(nil)))
			check("switch log", g.switches, digestJSON(t, res.Switches))
			check("metrics", g.metrics, digestJSON(t, res.Metrics))
		})
	}
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
