package plan

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/geom"
)

// Bug enumerates the deterministic defects injectable into the RRT*
// implementation, reproducing Section V-C ("we injected bugs into the
// implementation of RRT* such that in some cases the generated motion plan
// can collide with obstacles").
type Bug int

// Injectable bugs.
const (
	// BugNone: correct RRT*.
	BugNone Bug = iota
	// BugSkipEdgeCheck: a fraction of tree extensions skip the edge
	// collision check (a classic broken-refactor bug).
	BugSkipEdgeCheck
	// BugUncheckedShortcut: the final path is shortcut without collision
	// checking the new segments (an "optimisation" that trades safety for
	// path length).
	BugUncheckedShortcut
	// BugStaleObstacles: the planner checks collisions against a shrunken
	// copy of the obstacle set (stale or mis-scaled map).
	BugStaleObstacles
)

// String implements fmt.Stringer.
func (b Bug) String() string {
	switch b {
	case BugNone:
		return "none"
	case BugSkipEdgeCheck:
		return "skip-edge-check"
	case BugUncheckedShortcut:
		return "unchecked-shortcut"
	case BugStaleObstacles:
		return "stale-obstacles"
	default:
		return fmt.Sprintf("Bug(%d)", int(b))
	}
}

// ParseBug resolves a bug name as printed by String, reporting false for an
// unknown name.
func ParseBug(name string) (Bug, bool) {
	for b := BugNone; b <= BugStaleObstacles; b++ {
		if b.String() == name {
			return b, true
		}
	}
	return 0, false
}

// RRTStarConfig configures the sampling-based planner.
type RRTStarConfig struct {
	// MaxIters bounds the number of samples.
	MaxIters int
	// StepSize is the steering extension length.
	StepSize float64
	// NeighborRadius is the rewiring radius.
	NeighborRadius float64
	// GoalBias is the probability of sampling the goal directly.
	GoalBias float64
	// GoalTolerance is how close a node must get to the goal.
	GoalTolerance float64
	// Margin is the clearance used in collision checks.
	Margin float64
	// Seed drives the sampler.
	Seed int64
	// Bug selects an injected defect (BugNone for the correct planner).
	Bug Bug
	// BugRate is the per-decision activation probability for probabilistic
	// bugs (BugSkipEdgeCheck).
	BugRate float64
}

// DefaultRRTStarConfig returns a configuration tuned for the 50 m city
// workspace.
func DefaultRRTStarConfig(seed int64) RRTStarConfig {
	return RRTStarConfig{
		MaxIters:       4000,
		StepSize:       3.0,
		NeighborRadius: 6.0,
		GoalBias:       0.10,
		GoalTolerance:  1.0,
		Margin:         0.6,
		Seed:           seed,
	}
}

// RRTStar is the third-party motion-planner stand-in (OMPL's RRT* [29]): an
// asymptotically optimal sampling-based planner. With a Bug configured it is
// the untrusted advanced planner of the Section V-C experiment.
type RRTStar struct {
	ws  *geom.Workspace
	idx *geom.Index // margin-resolved query index over ws
	cfg RRTStarConfig
	rng *rand.Rand
	// staleObs is the shrunken obstacle set used by BugStaleObstacles.
	staleWS  *geom.Workspace
	staleIdx *geom.Index

	// Per-planner scratch reused across Plan calls (a planner instance is
	// driven sequentially by its mission stack, never concurrently).
	nodes []rrtNode
	nn    nnGrid
}

var _ Planner = (*RRTStar)(nil)

// NewRRTStar builds the planner.
func NewRRTStar(ws *geom.Workspace, cfg RRTStarConfig) (*RRTStar, error) {
	if cfg.MaxIters <= 0 || cfg.StepSize <= 0 || cfg.NeighborRadius <= 0 {
		return nil, fmt.Errorf("rrtstar: MaxIters, StepSize, NeighborRadius must be positive")
	}
	if cfg.GoalTolerance <= 0 {
		return nil, fmt.Errorf("rrtstar: GoalTolerance must be positive")
	}
	r := &RRTStar{
		ws:  ws,
		idx: ws.IndexFor(cfg.Margin),
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Bug == BugStaleObstacles {
		obs := ws.ObstaclesView()
		shrunk := make([]geom.AABB, len(obs))
		for i, o := range obs {
			shrunk[i] = o.Expand(-1.2) // stale map: obstacles 1.2 m smaller
		}
		staleWS, err := geom.NewWorkspace(ws.Bounds(), shrunk)
		if err != nil {
			return nil, fmt.Errorf("rrtstar stale workspace: %w", err)
		}
		r.staleWS = staleWS
		r.staleIdx = staleWS.IndexFor(cfg.Margin)
	}
	return r, nil
}

type rrtNode struct {
	pos    geom.Vec3
	parent int
	cost   float64
}

// Plan implements Planner. With BugNone the result always satisfies the
// clearance margin (it is validated); with a bug injected the result may
// collide — by design, to exercise the RTA protection.
func (r *RRTStar) Plan(start, goal geom.Vec3) (Plan, error) {
	bounds := r.ws.Bounds()
	nodes := append(r.nodes[:0], rrtNode{pos: start, parent: -1})
	r.nn.reset(bounds, r.cfg.NeighborRadius, r.cfg.MaxIters+1)
	r.nn.insert(0, start)
	bestGoal := -1
	bestCost := math.Inf(1)
	size := bounds.Size()

	for it := 0; it < r.cfg.MaxIters; it++ {
		var sample geom.Vec3
		if r.rng.Float64() < r.cfg.GoalBias {
			sample = goal
		} else {
			sample = geom.V(
				bounds.Min.X+r.rng.Float64()*size.X,
				bounds.Min.Y+r.rng.Float64()*size.Y,
				bounds.Min.Z+r.rng.Float64()*size.Z,
			)
		}
		nearest := r.nearest(sample)
		newPos := r.steer(nodes[nearest].pos, sample)
		if !r.pointFree(newPos) {
			continue
		}
		if !r.edgeFree(nodes[nearest].pos, newPos) {
			continue
		}
		// Choose parent: lowest cost among neighbours with a free edge.
		parent := nearest
		cost := nodes[nearest].cost + nodes[nearest].pos.Dist(newPos)
		neighbors := r.near(newPos)
		for _, n := range neighbors {
			c := nodes[n.idx].cost + n.dist
			if c < cost && r.edgeFree(nodes[n.idx].pos, newPos) {
				parent, cost = n.idx, c
			}
		}
		nodes = append(nodes, rrtNode{pos: newPos, parent: parent, cost: cost})
		newIdx := len(nodes) - 1
		r.nn.insert(newIdx, newPos)
		// Rewire neighbours through the new node when cheaper.
		for _, n := range neighbors {
			c := cost + n.dist
			if c < nodes[n.idx].cost && r.edgeFree(newPos, nodes[n.idx].pos) {
				nodes[n.idx].parent = newIdx
				nodes[n.idx].cost = c
			}
		}
		if d := newPos.Dist(goal); d <= r.cfg.GoalTolerance {
			if c := cost + d; c < bestCost {
				bestCost = c
				bestGoal = newIdx
			}
		}
	}
	r.nodes = nodes // keep the backing array for the next Plan call
	if bestGoal < 0 {
		return nil, fmt.Errorf("rrtstar %v → %v after %d iters: %w", start, goal, r.cfg.MaxIters, ErrNoPath)
	}

	var rev []geom.Vec3
	for i := bestGoal; i >= 0; i = nodes[i].parent {
		rev = append(rev, nodes[i].pos)
	}
	p := make(Plan, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	p = append(p, goal)

	if r.cfg.Bug == BugUncheckedShortcut {
		p = r.uncheckedShortcut(p)
	} else {
		p = Shortcut(p, r.ws, r.cfg.Margin)
	}
	return p, nil
}

// nearest returns the index of the node closest to p — the lexicographic
// (distance, index) minimum, exactly as the reference linear scan computes it
// — via expanding Chebyshev shells over the NN grid. It skips every cell
// farther than the best distance along some axis and stops at the first
// shell it skips entirely: each cell of a later shell is at least as far
// along that axis as the shell cell on its way to p, so none can win or tie.
func (r *RRTStar) nearest(p geom.Vec3) int {
	g := &r.nn
	cqx := g.axisOf(p.X, g.origin.X, g.nx)
	cqy := g.axisOf(p.Y, g.origin.Y, g.ny)
	cqz := g.axisOf(p.Z, g.origin.Z, g.nz)
	slack := g.slack(p)
	best, bestD, bestSq := 0, math.Inf(1), math.Inf(1)
	for ring := 0; ; ring++ {
		// A cell whose gap along any axis exceeds bestD (plus slack) holds
		// no node that can win or tie: skip it, or its whole row or plane.
		scanned := false
		for dz := -ring; dz <= ring; dz++ {
			cz := cqz + dz
			if cz < 0 || cz >= g.nz || g.cellGap(p.Z, g.origin.Z, cz, g.nz)-slack > bestD {
				continue
			}
			for dy := -ring; dy <= ring; dy++ {
				cy := cqy + dy
				if cy < 0 || cy >= g.ny || g.cellGap(p.Y, g.origin.Y, cy, g.ny)-slack > bestD {
					continue
				}
				for dx := -ring; dx <= ring; dx++ {
					// Shell only: skip cells interior to the previous ring.
					if dx > -ring && dx < ring && dy > -ring && dy < ring && dz > -ring && dz < ring {
						continue
					}
					cx := cqx + dx
					if cx < 0 || cx >= g.nx || g.cellGap(p.X, g.origin.X, cx, g.nx)-slack > bestD {
						continue
					}
					scanned = true
					for _, e := range g.buckets[(cz*g.ny+cy)*g.nx+cx] {
						// Only a node with d <= bestD can win or tie, and its
						// square is within a few ulps of bestD²: the widened
						// bestSq admits it, and the exact test on d decides.
						s := e.pos.Sub(p).NormSq()
						if s > bestSq {
							continue
						}
						d, i := math.Sqrt(s), int(e.idx)
						if d < bestD || (d == bestD && i < best) {
							best, bestD, bestSq = i, d, s*(1+nnSlack)
						}
					}
				}
			}
		}
		if !scanned {
			return best
		}
	}
}

// slack is the absolute margin the grid bounds leave around a query at p
// for the rounding of cell assignment, face coordinates and distances: all
// a few ulps of coordinates of this magnitude.
func (g *nnGrid) slack(p geom.Vec3) float64 {
	return nnSlack * (g.mag + math.Abs(p.X) + math.Abs(p.Y) + math.Abs(p.Z))
}

// cellGap is the distance along one axis from coordinate v to cell c, zero
// when v is inside it; it grows with c's distance from v's cell. Edge cells
// extend to infinity outward, because out-of-bounds nodes are clamped into
// them, so a clamped node is never nearer than its cell's gap.
func (g *nnGrid) cellGap(v, origin float64, c, n int) float64 {
	if c > 0 {
		if d := origin + float64(c)*g.cell - v; d > 0 {
			return d
		}
	}
	if c < n-1 {
		if d := v - (origin + float64(c+1)*g.cell); d > 0 {
			return d
		}
	}
	return 0
}

// neighbor is one near() hit: a node index and its distance from the query,
// bit-identical to nodes[idx].pos.Dist(query) and query.Dist(nodes[idx].pos).
type neighbor struct {
	idx  int
	dist float64
}

// near returns all nodes within NeighborRadius of p in ascending index
// order, exactly as the reference linear scan returns them, each with its
// distance. Hits are collected in a bitset over node indices and read back
// in word order, so the order costs no sort. The returned slice is planner
// scratch, valid until the next near call.
func (r *RRTStar) near(p geom.Vec3) []neighbor {
	g := &r.nn
	rad := r.cfg.NeighborRadius
	// A node with Dist(p) <= rad has a square within a few ulps of rad²: the
	// widened radSq admits it, and the exact test on the root decides.
	radSq := rad * rad * (1 + nnSlack)
	// The scanned block reaches past the radius by the rounding slack, so a
	// hit whose coordinates round across a cell face is still inside it.
	reach := rad + g.slack(p)
	lox := g.axisOf(p.X-reach, g.origin.X, g.nx)
	hix := g.axisOf(p.X+reach, g.origin.X, g.nx)
	loy := g.axisOf(p.Y-reach, g.origin.Y, g.ny)
	hiy := g.axisOf(p.Y+reach, g.origin.Y, g.ny)
	loz := g.axisOf(p.Z-reach, g.origin.Z, g.nz)
	hiz := g.axisOf(p.Z+reach, g.origin.Z, g.nz)
	loW, hiW := len(g.hits), -1
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*g.ny + cy) * g.nx
			for cx := lox; cx <= hix; cx++ {
				for _, e := range g.buckets[base+cx] {
					s := e.pos.Sub(p).NormSq()
					if s > radSq {
						continue
					}
					d := math.Sqrt(s)
					if d > rad {
						continue
					}
					i := int(e.idx)
					w := i >> 6
					g.hits[w] |= 1 << (i & 63)
					g.hitDist[i] = d
					loW, hiW = min(loW, w), max(hiW, w)
				}
			}
		}
	}
	out := g.nearBuf[:0]
	for w := loW; w <= hiW; w++ {
		for b := g.hits[w]; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			out = append(out, neighbor{idx: i, dist: g.hitDist[i]})
		}
		g.hits[w] = 0
	}
	g.nearBuf = out
	return out
}

// nearestLinear is the reference O(n) nearest kept as differential-test
// ground truth for the grid implementation.
func (r *RRTStar) nearestLinear(nodes []rrtNode, p geom.Vec3) int {
	best, bestD := 0, math.Inf(1)
	for i, n := range nodes {
		if d := n.pos.Dist(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// nearLinear is the reference O(n) radius query kept as differential-test
// ground truth for the grid implementation.
func (r *RRTStar) nearLinear(nodes []rrtNode, p geom.Vec3) []int {
	var out []int
	for i, n := range nodes {
		if n.pos.Dist(p) <= r.cfg.NeighborRadius {
			out = append(out, i)
		}
	}
	return out
}

// nnSlack is the relative float slack of the grid queries' exact bounds:
// orders of magnitude above the few-ulp rounding they must absorb, orders
// of magnitude below any gap that would change which cells are scanned.
const nnSlack = 1e-9

// nnGrid is a uniform-grid point index over tree nodes with cell edge equal
// to the rewiring radius: near() inspects 3 cells per axis (4 only within
// the rounding slack of a face), and nearest() stops at the first shell
// that lies wholly farther than its best candidate — usually the first.
// Each bucket entry carries its node's position, so scans never touch the
// node array. Buckets and scratch are reused across Plan calls.
type nnGrid struct {
	origin     geom.Vec3
	cell       float64
	nx, ny, nz int
	// mag bounds the magnitude of in-grid coordinates, scaling slack.
	mag     float64
	buckets [][]nnEntry
	// hits is near's ordering bitset over node indices, all zero between
	// calls; hitDist holds each hit's distance while its bit is set.
	hits    []uint64
	hitDist []float64
	nearBuf []neighbor
}

// nnEntry is one node in an nnGrid bucket.
type nnEntry struct {
	pos geom.Vec3
	idx int32
}

// reset empties the grid for up to maxNodes nodes over bounds.
func (g *nnGrid) reset(bounds geom.AABB, cell float64, maxNodes int) {
	size := bounds.Size()
	g.origin = bounds.Min
	g.cell = cell
	g.nx = gridAxisCells(size.X, cell)
	g.ny = gridAxisCells(size.Y, cell)
	g.nz = gridAxisCells(size.Z, cell)
	g.mag = math.Abs(g.origin.X) + math.Abs(g.origin.Y) + math.Abs(g.origin.Z) +
		float64(g.nx+g.ny+g.nz)*cell
	n := g.nx * g.ny * g.nz
	if cap(g.buckets) < n {
		g.buckets = make([][]nnEntry, n)
	}
	g.buckets = g.buckets[:n]
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	if len(g.hitDist) < maxNodes {
		g.hitDist = make([]float64, maxNodes)
		g.hits = make([]uint64, (maxNodes+63)/64)
	}
}

func gridAxisCells(extent, cell float64) int {
	if !(extent > 0) || !(cell > 0) {
		return 1
	}
	n := int(math.Ceil(extent / cell))
	if n < 1 {
		return 1
	}
	return n
}

// axisOf maps a coordinate to its clamped cell index; out-of-bounds
// coordinates land in edge cells on both insert and query, which keeps the
// grid exhaustive (and hence the queries exact) for any point.
func (g *nnGrid) axisOf(v, origin float64, n int) int {
	if g.cell <= 0 || n <= 1 {
		return 0
	}
	f := math.Floor((v - origin) / g.cell)
	if f > 0 {
		if f >= float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	return 0
}

// insert adds node idx (below reset's maxNodes) at p.
func (g *nnGrid) insert(idx int, p geom.Vec3) {
	cx := g.axisOf(p.X, g.origin.X, g.nx)
	cy := g.axisOf(p.Y, g.origin.Y, g.ny)
	cz := g.axisOf(p.Z, g.origin.Z, g.nz)
	ci := (cz*g.ny+cy)*g.nx + cx
	g.buckets[ci] = append(g.buckets[ci], nnEntry{pos: p, idx: int32(idx)})
}

func (r *RRTStar) steer(from, to geom.Vec3) geom.Vec3 {
	d := to.Sub(from)
	if d.Norm() <= r.cfg.StepSize {
		return to
	}
	return from.Add(d.Unit().Scale(r.cfg.StepSize))
}

func (r *RRTStar) pointFree(p geom.Vec3) bool {
	if r.cfg.Bug == BugStaleObstacles {
		return r.staleIdx.Free(p)
	}
	return r.idx.Free(p)
}

func (r *RRTStar) edgeFree(a, b geom.Vec3) bool {
	if r.cfg.Bug == BugSkipEdgeCheck && r.rng.Float64() < r.cfg.BugRate {
		return true // the bug: extension accepted without checking
	}
	if r.cfg.Bug == BugStaleObstacles {
		return r.staleIdx.SegmentFree(a, b)
	}
	return r.idx.SegmentFree(a, b)
}

// uncheckedShortcut aggressively straightens the path without collision
// checking — the BugUncheckedShortcut defect.
func (r *RRTStar) uncheckedShortcut(p Plan) Plan {
	if len(p) <= 2 {
		return p
	}
	return Plan{p[0], p[len(p)-1]}
}
