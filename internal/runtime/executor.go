// Package runtime executes an RTA system according to the operational
// semantics of Figure 11 in the paper. A configuration is the tuple
// (L, OE, ct, FN, Topics); the executor repeatedly applies:
//
//   - DISCRETE-TIME-PROGRESS-STEP: when FN = ∅, advance ct to the earliest
//     calendar entry and set FN to the nodes firing then;
//   - ENVIRONMENT-INPUT: environment hooks may update input topics at any
//     time; the executor invokes them at every time progress;
//   - DM-STEP: a firing decision module reads the monitored state, updates
//     its mode, and the output-enable map OE is updated so exactly one of
//     {AC, SC} has its outputs enabled;
//   - AC-OR-SC-STEP: a firing controller (or plain) node reads its input
//     topics, steps, and publishes its outputs only if enabled in OE.
//
// The executor is deterministic: nodes firing at the same instant run in a
// fixed order (DMs first, then the remaining nodes alphabetically) unless a
// custom ScheduleOrder is installed — the falsification layer's schedule
// strategy (internal/falsify) uses that hook to enumerate interleavings under
// bounded asynchrony.
//
// New resolves every node once into a dense slot table, one slot per node in
// the system's sorted node order: the node, its module when it is a decision
// module, and its input and output topic IDs. The configuration is indexed
// by slot, so the per-firing path hashes no node name and walks no output
// map; names are resolved only at the boundary (LocalState, OutputEnabled,
// Mode, and a custom ScheduleOrder).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/calendar"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// Environment is the ENVIRONMENT-INPUT hook: it is invoked at every time
// progress with the previous and new current time and may update input
// topics (for example, integrating plant dynamics over [prev, now] and
// publishing fresh state estimates).
type Environment interface {
	Advance(prev, now time.Duration, topics *pubsub.Store) error
}

// EnvironmentFunc adapts a function to the Environment interface.
type EnvironmentFunc func(prev, now time.Duration, topics *pubsub.Store) error

// Advance implements Environment.
func (f EnvironmentFunc) Advance(prev, now time.Duration, topics *pubsub.Store) error {
	return f(prev, now, topics)
}

// ScheduleOrder orders the set of nodes firing at the same instant. It
// receives the sorted firing set and returns the execution order (a
// permutation; the executor validates it).
type ScheduleOrder func(ct time.Duration, firing []string) []string

// InvariantViolationError reports that the Theorem 3.1 invariant φInv (or the
// safety predicate φsafe) failed at a DM sampling instant.
type InvariantViolationError struct {
	Time   time.Duration
	Module string
	Mode   rta.Mode
}

// Error implements error.
func (e *InvariantViolationError) Error() string {
	return fmt.Sprintf("invariant φInv violated at t=%v in module %q (mode %v)", e.Time, e.Module, e.Mode)
}

// Config holds the executor's mutable configuration (L, OE, ct, FN, Topics),
// indexed by slot (slot i is the i-th name of the system's NodeNames). L is
// split by node kind: DM holds the local state of every decision module and
// Local that of every other node, so a DM firing boxes no state. OE is true
// for plain nodes; FN lists the slots still to fire at CT, in firing order.
type Config struct {
	Local  []node.State
	DM     []rta.DMState
	OE     []bool
	CT     time.Duration
	FN     []int
	Topics *pubsub.Store
}

// Option configures an Executor.
type Option func(*Executor)

// WithEnvironment installs the environment hook.
func WithEnvironment(env Environment) Option {
	return func(e *Executor) { e.env = env }
}

// WithScheduleOrder installs a custom same-instant execution order.
func WithScheduleOrder(o ScheduleOrder) Option {
	return func(e *Executor) { e.order = o }
}

// WithInvariantChecking makes the executor assert the module invariant φInv
// and φsafe after every DM step, returning an *InvariantViolationError when
// it fails. This is the "checked mode" used by tests and the
// systematic-testing engine.
func WithInvariantChecking() Option {
	return func(e *Executor) { e.checkInv = true }
}

// WithObservers attaches observers to the executor's event stream: the
// executor emits obs.NodeFired at every firing (including drop-filtered
// ones), obs.ModeSwitch at every DM mode change, obs.InvariantViolation when
// the checked-mode monitor trips, and obs.TimeProgress at every
// DISCRETE-TIME-PROGRESS-STEP. Events are delivered synchronously on the run
// goroutine, in a deterministic order for a given system and schedule.
func WithObservers(observers ...obs.Observer) Option {
	return func(e *Executor) { e.observers = append(e.observers, observers...) }
}

// WithDropFilter installs a firing filter: before a node fires, drop(ct,
// name) is consulted and, when true, the firing is skipped (the node misses
// its deadline). This models best-effort OS scheduling; Section V-D traces
// the 34 crashes of the endurance experiment to exactly such missed SC
// deadlines.
func WithDropFilter(drop func(ct time.Duration, nodeName string) bool) Option {
	return func(e *Executor) { e.drop = drop }
}

// slot is one node resolved for the per-firing path.
type slot struct {
	name string
	node *node.Node
	// mod is the node's module when the node is its decision module; ac and
	// sc are then the slots of the module's controllers and partners the DM
	// slots of the modules coordinated with it (Section VII).
	mod      *rta.Module
	ac, sc   int
	partners []int
	// inIDs are the subscriptions' dense topic IDs and in the reusable input
	// valuation: refilling the same map with the same keys every firing
	// performs no allocation.
	inIDs []pubsub.TopicID
	in    pubsub.Valuation
	// outs are the declared output topics and outIDs their IDs, aligned.
	outs   []pubsub.TopicName
	outIDs []pubsub.TopicID
}

// Executor runs an RTA system.
type Executor struct {
	cal *calendar.Calendar
	cfg Config

	slots []slot
	index map[string]int // node name -> slot, for the name-keyed accessors

	env      Environment
	order    ScheduleOrder
	drop     func(time.Duration, string) bool
	checkInv bool

	// observers is the attached observer set; byKind is the per-kind
	// dispatch table derived from it at construction. Emission sites check
	// the relevant list for emptiness before constructing an event, so
	// unobserved kinds cost nothing on the per-firing hot path.
	observers []obs.Observer
	byKind    [obs.KindCount][]obs.Observer

	// Reusable firing-set buffers. FN is fully consumed before the next time
	// progress (Step only advances time when FN is empty), so the backing
	// arrays can be recycled per instant.
	fnBuf  []int
	ordBuf []int

	steps uint64
}

// New creates an executor for the system with the given extra environment
// topics (topics read by nodes but produced by no node must be declared so
// the store knows them; defaults supply their initial values).
func New(sys *rta.System, envTopics []pubsub.Topic, opts ...Option) (*Executor, error) {
	if sys == nil {
		return nil, errors.New("nil system")
	}
	cal, err := sys.Calendar()
	if err != nil {
		return nil, err
	}

	declared := make(map[pubsub.TopicName]bool, len(envTopics))
	topics := make([]pubsub.Topic, 0, len(envTopics))
	for _, t := range envTopics {
		if declared[t.Name] {
			return nil, fmt.Errorf("duplicate environment topic %q", t.Name)
		}
		declared[t.Name] = true
		topics = append(topics, t)
	}
	for _, t := range sys.Topics() {
		if !declared[t] {
			declared[t] = true
			topics = append(topics, pubsub.Topic{Name: t})
		}
	}
	store, err := pubsub.NewStore(topics...)
	if err != nil {
		return nil, fmt.Errorf("topic store: %w", err)
	}

	names := sys.NodeNames()
	if !slices.Equal(cal.Names(), names) {
		return nil, fmt.Errorf("calendar order %v differs from node order %v", cal.Names(), names)
	}
	e := &Executor{
		cal:   cal,
		slots: make([]slot, len(names)),
		index: make(map[string]int, len(names)),
		cfg: Config{
			Local:  make([]node.State, len(names)),
			DM:     make([]rta.DMState, len(names)),
			OE:     make([]bool, len(names)),
			Topics: store,
		},
	}
	for i, name := range names {
		e.index[name] = i
	}
	// Initial configuration: L0 = init states (mode = SC for DMs); OE0
	// enables every SC and plain node and disables every AC; ct0 = 0;
	// FN0 = ∅.
	for i, name := range names {
		n, _ := sys.Node(name)
		s := slot{name: name, node: n, outs: n.Outputs()}
		if s.inIDs, err = store.IDs(n.Inputs()); err != nil {
			return nil, fmt.Errorf("node %q inputs: %w", name, err)
		}
		if s.outIDs, err = store.IDs(s.outs); err != nil {
			return nil, fmt.Errorf("node %q outputs: %w", name, err)
		}
		s.in = make(pubsub.Valuation, len(s.inIDs))
		if m, isDM := sys.IsDM(name); isDM {
			s.mod = m
			s.ac, s.sc = e.index[m.AC().Name()], e.index[m.SC().Name()]
			for _, p := range sys.CoordinatedWith(m.Name()) {
				s.partners = append(s.partners, e.index[p.DM().Name()])
			}
			e.cfg.DM[i] = m.InitDMState()
		} else {
			e.cfg.Local[i] = n.InitState()
		}
		e.slots[i] = s
		e.cfg.OE[i] = true
	}
	for _, s := range e.slots {
		if s.mod != nil {
			e.cfg.OE[s.ac] = false
		}
	}
	for _, opt := range opts {
		opt(e)
	}
	e.byKind = obs.ByKind(e.observers)
	return e, nil
}

// Now returns the current time ct.
func (e *Executor) Now() time.Duration { return e.cfg.CT }

// Topics returns the global topic store.
func (e *Executor) Topics() *pubsub.Store { return e.cfg.Topics }

// Mode returns the current mode of the named module.
func (e *Executor) Mode(moduleName string) (rta.Mode, error) {
	for i, s := range e.slots {
		if s.mod != nil && s.mod.Name() == moduleName {
			return e.cfg.DM[i].Mode, nil
		}
	}
	return 0, fmt.Errorf("unknown module %q", moduleName)
}

// OutputEnabled reports whether the named controller node's outputs are
// currently enabled; plain nodes (and unknown names) are always enabled.
func (e *Executor) OutputEnabled(nodeName string) bool {
	i, ok := e.index[nodeName]
	return !ok || e.cfg.OE[i]
}

// Steps returns the number of discrete node firings executed.
func (e *Executor) Steps() uint64 { return e.steps }

// LocalState returns the local state of a node (for inspection by tests and
// the systematic-testing engine).
func (e *Executor) LocalState(nodeName string) (node.State, bool) {
	i, ok := e.index[nodeName]
	switch {
	case !ok:
		return nil, false
	case e.slots[i].mod != nil:
		return e.cfg.DM[i], true
	}
	return e.cfg.Local[i], true
}

// Step applies one transition of the operational semantics: a time progress
// when FN is empty, otherwise the firing of the next node in FN. It returns
// false when the calendar is empty (no further transitions exist).
func (e *Executor) Step() (bool, error) {
	if len(e.cfg.FN) == 0 {
		return e.timeProgress()
	}
	i := e.cfg.FN[0]
	e.cfg.FN = e.cfg.FN[1:]
	if s := &e.slots[i]; e.drop != nil && e.drop(e.cfg.CT, s.name) {
		// Firing skipped: missed deadline.
		if list := e.byKind[obs.KindNodeFired]; len(list) > 0 {
			obs.Emit(list, obs.NodeFired{T: e.cfg.CT, Node: s.name, DM: s.mod != nil, Dropped: true})
		}
		return true, nil
	}
	if err := e.fire(i); err != nil {
		return false, err
	}
	return true, nil
}

// Run advances the system until ct would exceed deadline or the context is
// cancelled (checked at every time progress, so cancellation lands between
// instants, never splitting the firings of one instant). All firings at
// instants ≤ deadline are executed; on cancellation the context's error is
// returned and the executor is left in a consistent configuration from which
// Run may be called again.
func (e *Executor) Run(ctx context.Context, deadline time.Duration) error {
	done := ctx.Done()
	for {
		if len(e.cfg.FN) == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			next, ok := e.cal.PeekNext(e.cfg.CT)
			if !ok || next > deadline {
				return nil
			}
		}
		if _, err := e.Step(); err != nil {
			return err
		}
	}
}

// RunUntil advances the system until ct would exceed deadline. All firings
// at instants ≤ deadline are executed. It is Run without cancellation.
//
//soter:ctx-ok documented shim: RunUntil(d) is defined as Run(Background, d)
func (e *Executor) RunUntil(deadline time.Duration) error {
	return e.Run(context.Background(), deadline) //soter:ctx-ok documented shim: the uncancellable legacy entry point
}

// timeProgress implements DISCRETE-TIME-PROGRESS-STEP plus the environment
// hook.
func (e *Executor) timeProgress() (bool, error) {
	next, ok := e.cal.PeekNext(e.cfg.CT)
	if !ok {
		return false, nil
	}
	prev := e.cfg.CT
	e.cfg.CT = next
	if e.env != nil {
		if err := e.env.Advance(prev, next, e.cfg.Topics); err != nil {
			return false, fmt.Errorf("environment at t=%v: %w", next, err)
		}
	}
	// Emitted after the environment hook, so an environment that itself
	// emits events (the simulator's per-sub-step trajectory samples) keeps
	// the stream's timestamps monotone.
	if list := e.byKind[obs.KindTimeProgress]; len(list) > 0 {
		obs.Emit(list, obs.TimeProgress{T: next, Prev: prev})
	}
	e.cfg.FN = e.orderFiring(next)
	return true, nil
}

// orderFiring computes the instant's firing set and arranges it: decision
// modules first (so OE reflects the freshest mode before controllers
// publish), then the rest, both alphabetically — unless a custom order is
// installed. The custom scheduler is handed freshly allocated names, since
// it may retain them (the systematic-testing engine records schedules).
func (e *Executor) orderFiring(ct time.Duration) []int {
	e.fnBuf = e.cal.AppendFiringAt(ct, e.fnBuf[:0])
	e.ordBuf = e.ordBuf[:0]
	if e.order != nil {
		firing := make([]string, len(e.fnBuf))
		for k, i := range e.fnBuf {
			firing[k] = e.slots[i].name
		}
		ordered := e.order(ct, firing)
		if validPermutation(firing, ordered) {
			for _, name := range ordered {
				e.ordBuf = append(e.ordBuf, e.index[name])
			}
			return e.ordBuf
		}
		// An invalid permutation from a custom scheduler falls back to the
		// default order rather than corrupting the run.
	}
	e.ordBuf = e.defaultOrder(e.fnBuf, e.ordBuf)
	return e.ordBuf
}

// defaultOrder appends the firing slots to dst with DMs first, preserving
// the sorted order within each class.
func (e *Executor) defaultOrder(firing, dst []int) []int {
	for _, i := range firing {
		if e.slots[i].mod != nil {
			dst = append(dst, i)
		}
	}
	for _, i := range firing {
		if e.slots[i].mod == nil {
			dst = append(dst, i)
		}
	}
	return dst
}

// fire executes DM-STEP or AC-OR-SC-STEP for the node in slot i.
func (e *Executor) fire(i int) error {
	s := &e.slots[i]
	e.steps++
	if list := e.byKind[obs.KindNodeFired]; len(list) > 0 {
		obs.Emit(list, obs.NodeFired{T: e.cfg.CT, Node: s.name, DM: s.mod != nil})
	}
	// The input valuation is a per-node reusable buffer filled through the
	// store's dense topic IDs; it is only valid for the duration of the
	// firing (nodes must not retain it, per the StepFunc contract).
	e.cfg.Topics.ReadInto(s.inIDs, s.in)

	if s.mod != nil {
		return e.fireDM(i)
	}

	// AC-OR-SC-STEP: the node steps; outputs are written only when enabled.
	// Step has checked that out names declared outputs only, so looking up
	// each declared output writes all of out.
	next, out, err := s.node.Step(e.cfg.Local[i], s.in)
	if err != nil {
		return err
	}
	e.cfg.Local[i] = next
	if e.cfg.OE[i] {
		for k, topic := range s.outs {
			if v, ok := out[topic]; ok {
				e.cfg.Topics.SetID(s.outIDs[k], v)
			}
		}
	}
	return nil
}

// fireDM executes DM-STEP for the decision module in slot i: update the DM
// state from the switching policy and flip the output-enable entries of the
// controlled AC and SC (dm1, dm2). The executor applies the module's
// decision (DecideState, which the generated DM node's step function wraps)
// directly, so the typed DM state is never boxed.
func (e *Executor) fireDM(i int) error {
	s, m := &e.slots[i], e.slots[i].mod
	prev := e.cfg.DM[i]
	dm := m.DecideState(prev, s.in)
	e.cfg.DM[i] = dm
	mode := dm.Mode
	enAC := mode == rta.ModeAC
	e.cfg.OE[s.ac] = enAC
	e.cfg.OE[s.sc] = !enAC

	if mode != prev.Mode {
		e.recordSwitch(obs.ModeSwitch{T: e.cfg.CT, Module: m.Name(), From: prev.Mode, To: mode, Reason: dm.Reason})
		// Coordinated switching (Section VII): a disengagement demotes the
		// coordinated partner modules to SC immediately.
		if mode == rta.ModeSC {
			e.forceCoordinated(s)
		}
	}
	if e.checkInv {
		if !m.SafeHolds(s.in) || !m.InvariantHolds(mode, s.in) {
			if list := e.byKind[obs.KindInvariantViolation]; len(list) > 0 {
				obs.Emit(list, obs.InvariantViolation{T: e.cfg.CT, Module: m.Name(), Mode: mode})
			}
			return &InvariantViolationError{Time: e.cfg.CT, Module: m.Name(), Mode: mode}
		}
	}
	return nil
}

// recordSwitch emits the obs.ModeSwitch event — the executor's only report
// of a mode change.
func (e *Executor) recordSwitch(sw obs.ModeSwitch) {
	if list := e.byKind[obs.KindModeSwitch]; len(list) > 0 {
		obs.Emit(list, sw)
	}
}

// forceCoordinated demotes every module coordinated with the trigger DM
// slot to SC mode, updating their DM state and output enables and emitting
// the forced switches. The partner's policy state is preserved — its next
// own decision sees Mode = SC and (by the policy contract) treats the
// demotion like any other entry into SC mode.
func (e *Executor) forceCoordinated(trigger *slot) {
	for _, p := range trigger.partners {
		prev := e.cfg.DM[p]
		if prev.Mode == rta.ModeSC {
			continue
		}
		partner := &e.slots[p]
		e.cfg.DM[p] = rta.DMState{Mode: rta.ModeSC, Reason: rta.ReasonCoordinated, Policy: prev.Policy}
		e.cfg.OE[partner.ac] = false
		e.cfg.OE[partner.sc] = true
		e.recordSwitch(obs.ModeSwitch{
			T:           e.cfg.CT,
			Module:      partner.mod.Name(),
			From:        prev.Mode,
			To:          rta.ModeSC,
			Reason:      rta.ReasonCoordinated,
			Coordinated: true,
		})
	}
}

func validPermutation(orig, perm []string) bool {
	if len(orig) != len(perm) {
		return false
	}
	count := make(map[string]int, len(orig))
	for _, s := range orig {
		count[s]++
	}
	for _, s := range perm {
		count[s]--
		if count[s] < 0 {
			return false
		}
	}
	return true
}
