// Package service is the simulation-as-a-service layer: a long-running
// server that accepts simulation jobs over HTTP/JSON, schedules them on a
// bounded job queue, streams live progress as obs JSONL events, and answers
// repeated work from a deterministic result store.
//
// Three kinds of job share one engine: a sweep (JobSpec — a named scenario
// from the registry plus declarative overrides and a seed sweep, expanded
// into fleet missions exactly like a CLI sweep would), a falsification
// campaign (FalsifyJobSpec) and a certification campaign (CertifyJobSpec).
// Each implements the unexported jobKind interface; submission, the queue,
// the lifecycle, the worker clamp, event fan-out, progress counters and
// retention are the engine's and exist once. What the service adds over a
// one-shot CLI is two things:
//
//   - Persistence of work already done. Runs are fully deterministic per
//     (spec, seed) — the property the paper's repeatable RTA experiments rely
//     on — so every grid cell's verdict is stored under a canonical
//     fingerprint of its overridden spec and seed
//     (scenario.Spec.Fingerprint) in the tiered result store
//     (internal/store): an in-memory LRU in front of an optional crash-safe
//     disk tier (Config.StoreDir — a restarted server answers yesterday's
//     sweeps without simulating) and an optional peer tier (Config.Peers —
//     N servers form one logical cache over GET /store/{key}). Sweeps and
//     deterministic certifications read and fill cells through the store's
//     one cell protocol (store.Tiered.Lookup), so a repeated cell is
//     byte-identical to a fresh run and orders of magnitude faster, and
//     concurrent identical fills collapse so every fingerprint simulates at
//     most once however many jobs want it; /stats exposes the per-tier
//     hit/miss/eviction and singleflight counters.
//
//   - A live view of work in flight. Each job's missions or campaign fan
//     their event streams (run boundaries, mode switches, invariant
//     violations, crashes, landings, campaign progress) out to any number of
//     HTTP subscribers as JSON Lines — the same wire format as soter-sim
//     -trace — with a bounded replay ring so late subscribers still see the
//     whole stream.
//
// Server is transport-agnostic (Submit/Job/Cancel/Stats are plain methods);
// Handler adapts it to HTTP. cmd/soter-serve is the binary.
package service

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ErrBusy marks capacity rejections (job queue full, job table full): the
// request was well-formed and may succeed later. The HTTP layer maps it to
// 503 so clients retry instead of discarding the request as malformed.
var ErrBusy = errors.New("server busy")

// ErrClosed rejects submissions to a server that is shutting down.
var ErrClosed = errors.New("server closed")

// Config sizes the server.
type Config struct {
	// Workers is the default fleet worker bound per job (0 = GOMAXPROCS);
	// a JobSpec may lower it for itself.
	Workers int
	// JobConcurrency is how many jobs run at once (default 1: jobs queue
	// behind each other, missions parallelize inside each job).
	JobConcurrency int
	// QueueDepth bounds the number of queued-but-not-started jobs (default
	// 64); submissions beyond it are rejected rather than buffered without
	// bound.
	QueueDepth int
	// CacheEntries bounds the result store's in-memory tier (default
	// store.DefaultMemoryEntries).
	CacheEntries int
	// StoreDir, when set, adds a crash-safe disk tier to the result store
	// rooted at the directory: results survive restarts, and a server
	// reopened on the same directory serves previous sweeps without
	// simulating.
	StoreDir string
	// StoreMaxBytes bounds the disk tier (default store.DefaultDiskMaxBytes);
	// least-recently-accessed entries are evicted beyond it.
	StoreMaxBytes int64
	// Peers lists sibling soter-serve base URLs ("http://host:port"). When
	// set, missing results are fetched from peers (rendezvous-hashed per
	// fingerprint) over GET /store/{key} before being simulated locally, so
	// N processes form one logical cache. A down peer degrades to local
	// compute, never an error.
	Peers []string
	// MaxJobs bounds how many jobs are retained (default 1024). When a
	// submission would exceed it, the oldest jobs in a terminal state are
	// evicted (their reports and event rings released); active jobs are
	// never evicted, and a submission that cannot fit under the bound is
	// rejected.
	MaxJobs int
	// EventRing is the per-job replay ring capacity (default 8192 events).
	EventRing int
	// EventBuffer is the per-subscriber channel buffer (default 256).
	EventBuffer int
}

func (c Config) jobConcurrency() int {
	if c.JobConcurrency > 0 {
		return c.JobConcurrency
	}
	return 1
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) maxJobs() int {
	if c.MaxJobs > 0 {
		return c.MaxJobs
	}
	return 1024
}

// Stats is the /stats payload: the result store's per-tier and singleflight
// counters plus job lifecycle counts.
type Stats struct {
	Store store.Stats `json:"store"`
	Jobs  JobCounts   `json:"jobs"`
}

// JobCounts tallies jobs by lifecycle state.
type JobCounts struct {
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Server owns the job queue, the runner pool and the tiered result store.
type Server struct {
	cfg   Config
	store *store.Tiered

	ctx       context.Context
	stop      context.CancelFunc
	queue     chan *Job
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu     sync.Mutex
	closed bool // set under mu before the runners stop; gates Submit
	jobs   map[string]*Job
	order  []string // submission order, for listing
	seq    int
}

// New builds a server and starts its job runners. Close releases them. It
// errors when the configured store tiers cannot be opened (unwritable
// StoreDir, malformed peer URL) — a server that silently dropped its
// durability would serve correct results while quietly re-simulating
// everything.
func New(cfg Config) (*Server, error) {
	opts := store.Options{Memory: store.NewMemory(cfg.CacheEntries)}
	if cfg.StoreDir != "" {
		disk, err := store.NewDisk(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
		opts.Disk = disk
	}
	if len(cfg.Peers) > 0 {
		peers, err := store.NewPeers(store.PeersConfig{Peers: cfg.Peers})
		if err != nil {
			return nil, err
		}
		opts.Peers = peers
	}
	ctx, stop := context.WithCancel(context.Background()) //soter:ctx-ok documented shim: the server owns its lifecycle root; Close cancels it
	s := &Server{
		cfg:   cfg,
		store: store.NewTiered(opts),
		ctx:   ctx,
		stop:  stop,
		queue: make(chan *Job, cfg.queueDepth()),
		jobs:  make(map[string]*Job),
	}
	for i := 0; i < cfg.jobConcurrency(); i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Close cancels every queued and running job and waits for the runners to
// drain. The server rejects submissions afterwards.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// The flag is flipped under mu before the runners stop, and Submit
		// enqueues under the same lock — so after this point no new job can
		// reach the queue, and the final drain below leaves nothing behind.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.stop()
		s.wg.Wait()
		// Jobs that were queued when the runners exited would otherwise stay
		// StatusQueued forever (and their event streams open).
		for {
			select {
			case job := <-s.queue:
				job.requestCancel()
				job.finish(nil, context.Canceled)
			default:
				// Closed last: with the runners drained no fill can be in
				// flight, so closing the store wakes nobody mid-simulation.
				_ = s.store.Close()
				return
			}
		}
	})
}

// Store exposes the tiered result store (tests seed or inspect it).
func (s *Server) Store() *store.Tiered { return s.store }

// Submit validates a sweep request against the scenario registry and
// enqueues it. It returns the queued job, or an error when the spec does not
// resolve, the queue is full, the retention bound cannot admit another job,
// or the server is closed.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.submit(spec.resolve())
}

// SubmitFalsify validates a falsification request and enqueues it on the same
// job queue as every other kind.
func (s *Server) SubmitFalsify(spec FalsifyJobSpec) (*Job, error) {
	return s.submit(spec, spec.config().Validate())
}

// SubmitCertify validates a certification request and enqueues it on the
// same job queue as every other kind.
func (s *Server) SubmitCertify(spec CertifyJobSpec) (*Job, error) {
	return s.submit(spec, spec.config().Validate())
}

// submit registers and queues a validated job — the one submit path of every
// kind. Registration, retention eviction and the (non-blocking) enqueue
// happen under one lock, so a full queue never unregisters a neighbour's job
// and Close — which flips s.closed under the same lock before stopping the
// runners — can never strand a job in the queue.
func (s *Server) submit(kind jobKind, invalid error) (*Job, error) {
	if invalid != nil {
		return nil, invalid
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.evictTerminalLocked(s.cfg.maxJobs() - 1)
	if len(s.jobs) >= s.cfg.maxJobs() {
		return nil, fmt.Errorf("job table full (%d active jobs): %w", len(s.jobs), ErrBusy)
	}
	s.seq++
	job := &Job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		kind:    kind,
		fan:     newFanout(s.cfg.EventRing),
		created: time.Now(),
		status:  StatusQueued,
	}
	select {
	case s.queue <- job:
	default:
		return nil, fmt.Errorf("job queue full (%d queued): %w", cap(s.queue), ErrBusy)
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	return job, nil
}

// evictTerminalLocked drops the oldest terminal jobs until at most keep
// remain in the table. Active (queued/running) jobs are never evicted.
// Callers hold s.mu.
func (s *Server) evictTerminalLocked(keep int) {
	if keep < 0 || len(s.jobs) <= keep {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if len(s.jobs) <= keep {
			kept = append(kept, s.order[i:]...)
			break
		}
		if s.jobs[id].Status().Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels the job: a queued job is marked cancelled before it starts,
// a running job has its context cancelled (partial results are kept). It
// reports whether the job exists.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.requestCancel()
	return true
}

// Stats snapshots the store counters and job tallies.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	st := Stats{Store: s.store.Stats()}
	for _, j := range jobs {
		st.Jobs.Total++
		switch j.Status() {
		case StatusQueued:
			st.Jobs.Queued++
		case StatusRunning:
			st.Jobs.Running++
		case StatusDone:
			st.Jobs.Done++
		case StatusFailed:
			st.Jobs.Failed++
		case StatusCancelled:
			st.Jobs.Cancelled++
		}
	}
	return st
}

// runner drains the job queue until the server closes.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			// Drain: jobs still queued at shutdown are marked cancelled so
			// clients polling them see a terminal state.
			for {
				select {
				case job := <-s.queue:
					job.requestCancel()
					job.finish(nil, context.Canceled)
				default:
					return
				}
			}
		case job := <-s.queue:
			s.run(job)
		}
	}
}

// jobKind is one kind of work the server runs. JobSpec (through its
// resolved sweepJob), FalsifyJobSpec and CertifyJobSpec implement it. The
// engine owns everything the kinds share — the queue, the lifecycle, the
// worker clamp, the event fan-out, the progress counters and retention — so a
// kind supplies only what differs.
type jobKind interface {
	// workerBound is the worker bound the request asks for (0 = the
	// server's); the engine clamps it into runEnv.workers.
	workerBound() int
	// run executes the job. Its result is the wire-form report that
	// GET /jobs/{id}/report serves; a cancelled run returns the partial
	// result it accumulated.
	run(ctx context.Context, env runEnv) (any, error)
	// describe projects the request, its cell total and the result (nil
	// until the job is terminal) into the job's view.
	describe(v *JobView, result any)
}

// runEnv is what the engine hands a running job.
type runEnv struct {
	// workers is the job's worker bound, clamped to the server's.
	workers int
	// observers are the job's event fan-out and its progress tap; kinds
	// attach them to every mission or campaign they run.
	observers []obs.Observer
	// progress keeps the job's cell counters live.
	progress progressTap
	// store is the server's tiered result store.
	store *store.Tiered
}

// progressTap keeps a job's cell counters live, so polling clients
// (GET /jobs/{id}) see progress without subscribing to the event stream.
// Campaign kinds report through their progress events; sweeps count cells
// as the fleet finishes them.
type progressTap struct{ job *Job }

// Interests implements obs.Interested.
func (t progressTap) Interests() obs.KindSet {
	return obs.Kinds(obs.KindCampaignProgress, obs.KindCertifyProgress)
}

// OnEvent implements obs.Observer: a campaign's cells are its executions, a
// certification's its seeds.
func (t progressTap) OnEvent(e obs.Event) {
	var done int
	switch p := e.(type) {
	case obs.CampaignProgress:
		done = p.Executions
	case obs.CertifyProgress:
		done = p.Seeds
	default:
		return
	}
	t.job.mu.Lock()
	defer t.job.mu.Unlock()
	t.job.cellsDone = done
}

// cell counts one finished sweep cell.
func (t progressTap) cell(cached bool) {
	j := t.job
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone++
	if cached {
		j.cellsCached++
	}
}

// run is the one job path every kind takes: begin, run the kind under the
// job's context with the clamped worker bound, the job's observers and the
// result store, then finish with whatever result the kind produced.
func (s *Server) run(job *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if !job.begin(cancel) {
		// Cancelled while queued.
		job.finish(nil, context.Canceled)
		return
	}
	tap := progressTap{job}
	result, err := job.kind.run(ctx, runEnv{
		workers:   s.workers(job.kind.workerBound()),
		observers: []obs.Observer{job.fan, tap},
		progress:  tap,
		store:     s.store,
	})
	if ctx.Err() != nil {
		// The partial result stays; the job reports cancelled.
		err = context.Canceled
	}
	job.finish(result, err)
}

// workers clamps a job's requested worker bound. A job may lower the bound
// for itself but never raise it above the server's — worker counts are a
// server capacity decision, not a client-controlled one.
func (s *Server) workers(requested int) int {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if requested > 0 && requested < workers {
		return requested
	}
	return workers
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// report returns the job's wire-form report, or nil while it runs.
func (j *Job) report() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the job-terminating error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Subscribe attaches an event consumer to the job's stream (see
// fanout.Subscribe). The mask is intersected with StreamKinds — kinds outside
// it are never captured in the first place.
func (j *Job) Subscribe(mask obs.KindSet, buffer int) ([]obs.Event, <-chan obs.Event, func()) {
	return j.fan.Subscribe(mask&StreamKinds, buffer)
}

// begin transitions queued → running; it reports false when the job was
// cancelled while queued.
func (j *Job) begin(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel marks a queued job cancelled, or cancels a running job's
// context. Terminal jobs are left untouched.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCancelled
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// finish records the terminal state and closes the event stream. The result
// is recorded even for cancelled jobs — partial results are kept, and every
// kind's result is internally consistent about what never ran.
func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	j.result = result
	j.finished = time.Now()
	switch {
	case errors.Is(err, context.Canceled):
		j.status = StatusCancelled
		j.err = context.Canceled
	case err != nil:
		j.status = StatusFailed
		j.err = err
	default:
		j.status = StatusDone
	}
	j.mu.Unlock()
	// Closed outside the lock after the terminal state is visible, so a
	// subscriber that sees its channel close finds the result in place.
	j.fan.Close()
}
