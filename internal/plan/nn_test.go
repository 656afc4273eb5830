package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestNNGridMatchesLinear grows a random node cloud the way Plan does —
// inserting into the grid as it appends — and checks nearest/near against
// the reference linear scans at every step, including duplicate positions
// (index tie-breaks) and out-of-bounds points (clamped cells).
func TestNNGridMatchesLinear(t *testing.T) {
	ws := geom.CityWorkspace()
	r, err := NewRRTStar(ws, DefaultRRTStarConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	bounds := ws.Bounds()
	size := bounds.Size()
	rng := rand.New(rand.NewSource(23))
	const steps = 600
	r.nn.reset(bounds, r.cfg.NeighborRadius, steps)
	var nodes []rrtNode
	randPt := func(slack float64) geom.Vec3 {
		return geom.V(
			bounds.Min.X-slack+rng.Float64()*(size.X+2*slack),
			bounds.Min.Y-slack+rng.Float64()*(size.Y+2*slack),
			bounds.Min.Z-slack+rng.Float64()*(size.Z+2*slack),
		)
	}
	for i := 0; i < steps; i++ {
		var p geom.Vec3
		switch {
		case i > 0 && i%17 == 0:
			p = nodes[rng.Intn(len(nodes))].pos // exact duplicate: tie-break case
		case i%29 == 0:
			p = randPt(5) // out of bounds: clamped-cell case
		default:
			p = randPt(0)
		}
		nodes = append(nodes, rrtNode{pos: p, parent: -1})
		r.nn.insert(len(nodes)-1, p)
		checkNNQueries(t, r, nodes, randPt(3))
	}
}

// checkNNQueries asserts that the grid queries at q return exactly what the
// reference linear scans return: the same nearest index, and the same near
// indices in the same order, each with its bit-identical distance.
func checkNNQueries(t *testing.T, r *RRTStar, nodes []rrtNode, q geom.Vec3) {
	t.Helper()
	if got, want := r.nearest(q), r.nearestLinear(nodes, q); got != want {
		t.Fatalf("%d nodes: nearest(%v) = %d, linear = %d", len(nodes), q, got, want)
	}
	got := r.near(q)
	want := r.nearLinear(nodes, q)
	if len(got) != len(want) {
		t.Fatalf("%d nodes: near(%v) = %v, linear = %v", len(nodes), q, got, want)
	}
	for j := range got {
		if got[j].idx != want[j] {
			t.Fatalf("%d nodes: near(%v)[%d] = %d, linear = %d", len(nodes), q, j, got[j].idx, want[j])
		}
		if d := nodes[want[j]].pos.Dist(q); got[j].dist != d || q.Dist(nodes[want[j]].pos) != d {
			t.Fatalf("%d nodes: near(%v)[%d] dist = %v, Dist = %v", len(nodes), q, j, got[j].dist, d)
		}
	}
}

// TestNNPrefilterRoundingTies pins the squared-distance prefilters to the
// reference semantics in the cases where squares and roots disagree: two
// distinct squares whose roots round to the same distance (nearest must
// still break the tie on index), and a square above rad² whose root rounds
// to exactly rad (near must still include it).
func TestNNPrefilterRoundingTies(t *testing.T) {
	ws := geom.CityWorkspace()
	rng := rand.New(rand.NewSource(5))
	dir := func(scale float64) geom.Vec3 {
		return geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Unit().Scale(scale)
	}

	// nearest: node 0 across a cell face from the query, node 1 in the
	// query's own cell (scanned first), equally far but with a smaller square.
	r, err := NewRRTStar(ws, DefaultRRTStarConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	q := geom.V(5.9, 3, 3) // 0.1 below the x = 6 face of the 6 m grid
	found := false
	for try := 0; try < 1e6 && !found; try++ {
		a, b := q.Add(dir(0.3)), q.Add(dir(0.3))
		if a.X < 6 || b.X >= 6 {
			continue
		}
		sa, sb := a.Sub(q).NormSq(), b.Sub(q).NormSq()
		if sa > sb && a.Dist(q) == b.Dist(q) {
			nodes := []rrtNode{{pos: a, parent: -1}, {pos: b, parent: -1}}
			r.nn.reset(ws.Bounds(), r.cfg.NeighborRadius, len(nodes))
			for i, n := range nodes {
				r.nn.insert(i, n.pos)
			}
			checkNNQueries(t, r, nodes, q)
			found = true
		}
	}
	if !found {
		t.Fatal("no equal-root pair with distinct squares found")
	}

	// near: a node at exactly the radius whose square exceeds rad².
	found = false
	for try := 0; try < 1e6 && !found; try++ {
		cfg := DefaultRRTStarConfig(1)
		cfg.NeighborRadius = 1 + 9*rng.Float64()
		r, err := NewRRTStar(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rad := cfg.NeighborRadius
		q := geom.V(25, 25, 6)
		a := q.Add(dir(rad))
		if a.Dist(q) == rad && a.Sub(q).NormSq() > rad*rad {
			nodes := []rrtNode{{pos: a, parent: -1}}
			r.nn.reset(ws.Bounds(), rad, len(nodes))
			r.nn.insert(0, a)
			checkNNQueries(t, r, nodes, q)
			found = true
		}
	}
	if !found {
		t.Fatal("no on-radius node with a square above rad² found")
	}
}

// FuzzNNGridMatchesLinear is the soundness gate for the grid queries'
// shell bound, squared-distance prefilter and bitset ordering: on random
// workspaces, radii and trees it holds nearest/near to the linear scans at
// every insert. Each coordinate comes, with probability lattice, from the
// radius-spaced lattice through the origin, so points land exactly on cell
// faces, exactly a radius apart and exactly on top of each other.
func FuzzNNGridMatchesLinear(f *testing.F) {
	// seed, extents, radius, out-of-bounds slack, lattice share
	f.Add(int64(1), 50.0, 50.0, 12.0, 6.0, 0.0, 0.5)  // the city grid
	f.Add(int64(2), 12.0, 12.0, 12.0, 3.0, 0.0, 1.0)  // all on faces, radius-apart pairs, duplicates
	f.Add(int64(3), 30.0, 30.0, 10.0, 4.0, 25.0, 0.3) // out-of-bounds nodes and queries
	f.Add(int64(4), 40.0, 2.0, 0.0, 5.0, 3.0, 0.5)    // one cell on y, zero extent on z
	f.Add(int64(5), 6.0, 6.0, 6.0, 6.0, 10.0, 0.8)    // a single cell
	f.Add(int64(6), 50.0, 50.0, 12.0, 0.8, 2.0, 0.2)  // many small cells
	f.Fuzz(func(t *testing.T, seed int64, ex, ey, ez, rad, oob, lattice float64) {
		for _, v := range []float64{ex, ey, ez, oob} {
			if !(v >= 0 && v <= 200) {
				t.Skip()
			}
		}
		// Keep the grid small enough to scan: at most ~64 cells per axis.
		if !(rad >= 0.05 && rad <= 100) || ex/rad > 64 || ey/rad > 64 || ez/rad > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		// Integer origins keep lattice coordinates, faces and radius-apart
		// pairs exact for radii like 3 or 0.5.
		origin := geom.V(float64(rng.Intn(21)-10), float64(rng.Intn(21)-10), float64(rng.Intn(21)-10))
		bounds := geom.Box(origin, origin.Add(geom.V(ex, ey, ez)))
		ws, err := geom.NewWorkspace(bounds, nil)
		if err != nil {
			t.Skip()
		}
		cfg := DefaultRRTStarConfig(seed)
		cfg.NeighborRadius = rad
		r, err := NewRRTStar(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 300
		r.nn.reset(bounds, rad, steps)
		axis := func(lo, ext float64) float64 {
			if rng.Float64() < lattice {
				k := rng.Intn(int((ext+2*oob)/rad) + 1)
				return lo - math.Floor(oob/rad)*rad + float64(k)*rad
			}
			return lo - oob + rng.Float64()*(ext+2*oob)
		}
		pt := func() geom.Vec3 {
			return geom.V(axis(origin.X, ex), axis(origin.Y, ey), axis(origin.Z, ez))
		}
		var nodes []rrtNode
		for i := 0; i < steps; i++ {
			p := pt()
			if i > 0 && rng.Intn(8) == 0 {
				p = nodes[rng.Intn(len(nodes))].pos
			}
			nodes = append(nodes, rrtNode{pos: p, parent: -1})
			r.nn.insert(len(nodes)-1, p)
			q := pt()
			if rng.Intn(8) == 0 {
				q = nodes[rng.Intn(len(nodes))].pos
			}
			checkNNQueries(t, r, nodes, q)
		}
	})
}

// TestRRTStarScratchReuseDeterministic replans with one planner instance and
// compares against a fresh instance per call: scratch reuse must not change
// any output.
func TestRRTStarScratchReuseDeterministic(t *testing.T) {
	ws := geom.CityWorkspace()
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	reused, err := NewRRTStar(ws, DefaultRRTStarConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		fresh, err := NewRRTStar(ws, DefaultRRTStarConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		// Advance the fresh planner's rng to the same trial point.
		for i := 0; i < trial; i++ {
			if _, err := fresh.Plan(start, goal); err != nil {
				t.Fatal(err)
			}
		}
		pr, errR := reused.Plan(start, goal)
		pf, errF := fresh.Plan(start, goal)
		if (errR == nil) != (errF == nil) {
			t.Fatalf("trial %d: reused err %v, fresh err %v", trial, errR, errF)
		}
		if len(pr) != len(pf) {
			t.Fatalf("trial %d: plan lengths %d vs %d", trial, len(pr), len(pf))
		}
		for i := range pr {
			if pr[i] != pf[i] {
				t.Fatalf("trial %d: plan[%d] = %v vs %v", trial, i, pr[i], pf[i])
			}
		}
	}
}

func BenchmarkRRTStarPlan(b *testing.B) {
	ws := geom.CityWorkspace()
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRRTStar(ws, DefaultRRTStarConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Plan(start, goal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRRTStarReplan drives one planner across Plan calls the way a
// mission stack does, so it measures steady-state replanning with warm
// scratch rather than scratch allocation.
func BenchmarkRRTStarReplan(b *testing.B) {
	ws := geom.CityWorkspace()
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	r, err := NewRRTStar(ws, DefaultRRTStarConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Plan(start, goal); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Plan(start, goal); err != nil {
			b.Fatal(err)
		}
	}
}
