package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// goldenPlansDigest pins the exact Plan output of the RRT* planner: every
// waypoint bit of every plan (and every error) below. A neighbour-query
// change that reorders near() results or shifts a single RNG draw changes it.
const goldenPlansDigest = "b5342e385d3a9af8030b462051dbbf56eff7dcc1996cc5ef844f417319af7031"

// TestRRTStarGoldenPlans hashes the plans of several seeds × every injected
// bug, each replanning three legs on one planner instance the way a mission
// stack drives it, so scratch reuse and RNG continuity are pinned too.
func TestRRTStarGoldenPlans(t *testing.T) {
	ws := geom.CityWorkspace()
	legs := [][2]geom.Vec3{
		{geom.V(2, 2, 2), geom.V(46, 46, 9)},
		{geom.V(46, 46, 9), geom.V(2, 48, 3)},
		{geom.V(2, 48, 3), geom.V(48, 2, 10)},
	}
	bugs := []struct {
		bug  Bug
		rate float64
	}{
		{BugNone, 0},
		{BugSkipEdgeCheck, 0.3},
		{BugUncheckedShortcut, 0},
		{BugStaleObstacles, 0},
	}
	h := sha256.New()
	var buf [8]byte
	for _, b := range bugs {
		for _, seed := range []int64{1, 2, 3} {
			cfg := DefaultRRTStarConfig(seed)
			cfg.Bug, cfg.BugRate = b.bug, b.rate
			r, err := NewRRTStar(ws, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				p, err := r.Plan(leg[0], leg[1])
				fmt.Fprintf(h, "%v/%d/%v|", b.bug, seed, err)
				for _, w := range p {
					for _, c := range [3]float64{w.X, w.Y, w.Z} {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPlansDigest {
		t.Fatalf("RRT* plan digest = %s, want %s", got, goldenPlansDigest)
	}
}

// Every bug name round-trips through ParseBug, and an unknown name is
// rejected: the CLI, the service and falsify all parse through it.
func TestParseBugRoundTrip(t *testing.T) {
	for b := BugNone; b <= BugStaleObstacles; b++ {
		if got, ok := ParseBug(b.String()); !ok || got != b {
			t.Errorf("ParseBug(%q) = %v, %v; want %v", b.String(), got, ok, b)
		}
	}
	for _, name := range []string{"", "None", "skip", "Bug(9)"} {
		if _, ok := ParseBug(name); ok {
			t.Errorf("ParseBug(%q) accepted", name)
		}
	}
}
