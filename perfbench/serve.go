package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// The serve-mix workload: two in-process servers, each with one simulation
// worker per job, a memory tier smaller than its warm working set, a disk
// tier and the other server as its peer, driven by a closed loop of one
// client per core. Each server runs as many jobs at once as there are
// clients, so no job queues behind another client's job. Each round runs
// its cold jobs before its reads, so no simulation holds a CPU while a read
// is timed. The constants size it; see README.md for why.
const (
	serveScenario = "surveillance-city"
	serveLength   = 10 * time.Second
	// warmJobs is the warm pool per server: 2-seed jobs pre-filled at set-up
	// and resubmitted to the same server. Its 2·warmJobs cells exceed
	// memEntries, so warm hits split between the memory and disk tiers.
	warmJobs   = 16
	memEntries = 24
	// peerPrefill seeds each server's peer pool at set-up: jobs computed on
	// the other server. Later rounds refill it from the other server's cold
	// jobs.
	peerPrefill = 8
	// campaignSeeds certify cells are pre-filled at set-up; campaign jobs
	// repeat them, reading every run from the store.
	campaignSeeds = 2
	// maxJobs bounds each server's retained jobs. Every retained job holds
	// its event ring, so the default (1024) would put ~0.5 GiB on the heap.
	maxJobs = 256
)

// roundMix is one round's jobs per server and class: 75% warm, 5% campaign,
// 5% peer, 15% cold, with both servers loaded alike. No record of real
// traffic exists to take the shares from. They are chosen so that each gated
// percentile of the mixed latency falls well inside one class: op_p50_ms in
// warm (the fastest class, 0-75% of jobs) and op_p90_ms in cold (the slowest,
// 85-100%, an order of magnitude above the rest). Exact counts per round keep
// the shares, and so the percentiles, the same for every seed; the seed
// decides the order, the cells and the campaigns.
var roundMix = []struct {
	class string
	n     int
}{{"warm", 15}, {"campaign", 1}, {"peer", 1}, {"cold", 3}}

// Classes lists the job classes in report order.
var Classes = []string{"cold", "warm", "peer", "campaign"}

// certifyMaxSeeds bounds the seeds one certify job consumes from its base
// seed (Seed + 101·i, i < MaxSeeds).
const certifyMaxSeeds = 16

// job is one generated request.
type job struct {
	Class  string
	Server int
	// Seeds are the two mission seeds of a sweep job (cold, warm, peer).
	Seeds [2]int64
	// CertSeed is the base seed of a campaign job.
	CertSeed int64
}

func (j job) key() string { return fmt.Sprintf("%d,%d", j.Seeds[0], j.Seeds[1]) }

// body is the request the job POSTs, and the path it POSTs to.
func (j job) body() (string, any) {
	if j.Class == "campaign" {
		return "/certify", service.CertifyJobSpec{
			Scenario:   serveScenario,
			Threshold:  0.5,
			Confidence: 0.9,
			MaxSeeds:   certifyMaxSeeds,
			Batch:      8,
			Seed:       j.CertSeed,
			Duration:   service.Duration(serveLength),
		}
	}
	return "/jobs", service.JobSpec{
		Scenario:  serveScenario,
		Overrides: service.Overrides{Duration: service.Duration(serveLength)},
		Seeds:     j.Seeds[:],
	}
}

// generator draws the job stream from the workload seed. It is a pure
// function of the seed and of how many rounds were drawn: the peer pools
// carry over between rounds, but never depend on timing.
type generator struct {
	rng      *rand.Rand
	used     map[int64]bool
	warm     [2][]job
	peer     [2][]job // computed on the other server, not yet requested here
	pending  [2][]job // this round's cold jobs, peer candidates next round
	campaign []int64
}

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), used: map[int64]bool{}}
	for i := 0; i < campaignSeeds; i++ {
		s := g.fresh()
		for k := 1; k < certifyMaxSeeds; k++ {
			g.used[s+101*int64(k)] = true
		}
		g.campaign = append(g.campaign, s)
	}
	for s := 0; s < 2; s++ {
		for i := 0; i < warmJobs; i++ {
			g.warm[s] = append(g.warm[s], g.sweepJob("warm", s))
		}
		for i := 0; i < peerPrefill; i++ {
			g.peer[s] = append(g.peer[s], g.sweepJob("peer", s))
		}
	}
	return g
}

// fresh draws a mission seed no earlier job used.
func (g *generator) fresh() int64 {
	for {
		s := g.rng.Int63n(1<<40) + 1
		if !g.used[s] {
			g.used[s] = true
			return s
		}
	}
}

func (g *generator) sweepJob(class string, server int) job {
	return job{Class: class, Server: server, Seeds: [2]int64{g.fresh(), g.fresh()}}
}

// prefill lists the set-up jobs: the warm pools on their own servers, the
// peer pools on the other server, and each campaign on both servers.
func (g *generator) prefill() []job {
	var out []job
	for s := 0; s < 2; s++ {
		for _, j := range g.warm[s] {
			j.Class = "cold"
			out = append(out, j)
		}
		for _, j := range g.peer[s] {
			j.Class, j.Server = "cold", 1-s
			out = append(out, j)
		}
	}
	for _, c := range g.campaign {
		for s := 0; s < 2; s++ {
			out = append(out, job{Class: "campaign", Server: s, CertSeed: c})
		}
	}
	return out
}

// round draws the next round: roundMix on each server, split into the cold
// jobs and the reads (every other class), each part shuffled. Rounds run to
// completion before the next is drawn, so this round's cold jobs are
// finished before they join the other server's peer pool. That pool starts
// at peerPrefill and grows by two jobs per round, so it never runs dry.
func (g *generator) round() (cold, reads []job) {
	for s := 0; s < 2; s++ {
		for _, m := range roundMix {
			for i := 0; i < m.n; i++ {
				switch m.class {
				case "cold":
					j := g.sweepJob("cold", s)
					g.pending[1-s] = append(g.pending[1-s], job{Class: "peer", Server: 1 - s, Seeds: j.Seeds})
					cold = append(cold, j)
				case "warm":
					reads = append(reads, g.warm[s][g.rng.Intn(len(g.warm[s]))])
				case "peer":
					reads = append(reads, g.peer[s][0])
					g.peer[s] = g.peer[s][1:]
				case "campaign":
					reads = append(reads, job{Class: "campaign", Server: s, CertSeed: g.campaign[g.rng.Intn(len(g.campaign))]})
				}
			}
		}
	}
	for _, part := range [][]job{cold, reads} {
		g.rng.Shuffle(len(part), func(i, k int) { part[i], part[k] = part[k], part[i] })
	}
	for s := 0; s < 2; s++ {
		g.peer[s] = append(g.peer[s], g.pending[s]...)
		g.pending[s] = nil
	}
	return cold, reads
}

// cluster is the two servers of the workload and the client driving them.
type cluster struct {
	srv    [2]*service.Server
	hs     [2]*http.Server
	done   [2]chan struct{}
	dir    string
	client *client
}

// startCluster starts both servers on loopback listeners, each with a disk
// tier under a fresh directory in root and the other as its peer.
func startCluster(root string, clients int) (_ *cluster, err error) {
	c := &cluster{}
	var lns [2]net.Listener
	defer func() {
		if err != nil {
			for i, ln := range lns {
				if ln != nil {
					ln.Close()
				}
				if c.srv[i] != nil {
					c.srv[i].Close()
				}
			}
			os.RemoveAll(c.dir)
		}
	}()
	if c.dir, err = os.MkdirTemp(root, "serve-"); err != nil {
		return nil, err
	}
	var url [2]string
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		url[i] = "http://" + lns[i].Addr().String()
	}
	for i := range c.srv {
		c.srv[i], err = service.New(service.Config{
			Workers:        1,
			JobConcurrency: clients,
			CacheEntries:   memEntries,
			MaxJobs:        maxJobs,
			StoreDir:       filepath.Join(c.dir, strconv.Itoa(i)),
			Peers:          []string{url[1-i]},
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range c.hs {
		c.hs[i] = &http.Server{Handler: c.srv[i].Handler()}
		c.done[i] = make(chan struct{})
		go func() {
			defer close(c.done[i])
			_ = c.hs[i].Serve(lns[i]) // returns ErrServerClosed on Shutdown
		}()
	}
	c.client = &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}, url: url}
	return c, nil
}

// Close drops the client's connections, stops both listeners, waits for
// their goroutines, closes the servers and removes the disk tiers.
func (c *cluster) Close() {
	c.client.http.CloseIdleConnections()
	for i, hs := range c.hs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		cancel()
		<-c.done[i]
	}
	for _, s := range c.srv {
		s.Close()
	}
	os.RemoveAll(c.dir)
}

// outcome is one executed job as the client saw it.
type outcome struct {
	job
	err error
	// Client-side timings, ms: POST → report fetched, POST round trip, POST →
	// first event, event stream open → closed, report round trip.
	latency, submit, firstEvent, stream, report float64
	// Server-side phases from the job's timestamps, ms.
	queue, run float64
	simSeconds float64
	events     map[string]int64
	cached     int
	total      int
	cells      map[int64]json.RawMessage // sweep jobs: per-seed metrics
	certify    json.RawMessage           // campaign jobs: the certify result
	certRuns   int64
}

type jobView struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Error    string    `json:"error"`
	Cells    struct {
		Total  int `json:"total"`
		Cached int `json:"cached"`
	} `json:"cells"`
	Report *struct {
		SimTime service.Duration `json:"sim_time"`
		Results []struct {
			Seed    int64           `json:"seed"`
			Error   string          `json:"error"`
			Metrics json.RawMessage `json:"metrics"`
		} `json:"results"`
	} `json:"report"`
	CertifyResult json.RawMessage `json:"certify_result"`
}

// client runs jobs against the cluster over HTTP.
type client struct {
	http *http.Client
	url  [2]string
}

// exec submits the job, reads its event stream to the end and fetches its
// report, timing each step. With a tracer it records the job's spans.
func (c *client) exec(ctx context.Context, j job, tr *Tracer) outcome {
	out := outcome{job: j, events: map[string]int64{}}
	base := c.url[j.Server]
	path, req := j.body()
	t0 := time.Now()
	var view jobView
	if err := c.do(ctx, http.MethodPost, base+path, req, http.StatusAccepted, &view); err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	t1 := time.Now()
	first, err := c.stream(ctx, base+"/jobs/"+view.ID+"/events", out.events)
	if err != nil {
		out.err = fmt.Errorf("events: %w", err)
		return out
	}
	t2 := time.Now()
	if err := c.do(ctx, http.MethodGet, base+"/jobs/"+view.ID, nil, http.StatusOK, &view); err != nil {
		out.err = fmt.Errorf("report: %w", err)
		return out
	}
	t3 := time.Now()
	out.latency, out.submit, out.stream, out.report = ms(t3.Sub(t0)), ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
	if !first.IsZero() {
		out.firstEvent = ms(first.Sub(t0))
	}
	out.queue, out.run = ms(view.Started.Sub(view.Created)), ms(view.Finished.Sub(view.Started))
	if tr != nil {
		op := tr.NewOp()
		tr.Add(0, op, "job", t0, t3)
		tr.Add(op, op, "service.submit", t0, t1)
		tr.Add(op, op, "service.queue", view.Created, view.Started)
		tr.Add(op, op, "service.run", view.Started, view.Finished)
		tr.Add(op, op, "service.stream", t1, t2)
		tr.Add(op, op, "service.report", t2, t3)
	}
	if view.Status != "done" {
		out.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
		return out
	}
	out.cached, out.total = view.Cells.Cached, view.Cells.Total
	if j.Class == "campaign" {
		var res struct {
			Seeds int64 `json:"seeds"`
		}
		if err := json.Unmarshal(view.CertifyResult, &res); err != nil {
			out.err = fmt.Errorf("certify result: %w", err)
			return out
		}
		out.certRuns = res.Seeds
		out.certify = compact(view.CertifyResult)
		return out
	}
	if view.Report == nil {
		out.err = fmt.Errorf("job %s: done without a report", view.ID)
		return out
	}
	out.simSeconds = time.Duration(view.Report.SimTime).Seconds()
	out.cells = map[int64]json.RawMessage{}
	for _, r := range view.Report.Results {
		if r.Error != "" {
			out.err = fmt.Errorf("job %s seed %d: %s", view.ID, r.Seed, r.Error)
			return out
		}
		out.cells[r.Seed] = compact(r.Metrics)
	}
	return out
}

func compact(raw json.RawMessage) json.RawMessage {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// do sends one JSON request and decodes the JSON response, which must carry
// the wanted status.
func (c *client) do(ctx context.Context, method, url string, body any, want int, into any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}

// stream reads a job's JSONL event stream until the server closes it,
// counting events by kind. It returns when the first event arrived (zero for
// an empty stream).
func (c *client) stream(ctx context.Context, url string, kinds map[string]int64) (time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return time.Time{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var first time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
		}
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return first, fmt.Errorf("event line: %w", err)
		}
		kinds[e.Kind]++
	}
	return first, sc.Err()
}

// runJobs executes jobs with one client goroutine per worker, in a closed
// loop: each client takes the next job only after its previous one ended.
func (c *client) runJobs(ctx context.Context, jobs []job, workers int, tr *Tracer) []outcome {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = c.exec(ctx, jobs[i], tr)
			}
		}()
	}
	wg.Wait()
	return out
}

// checker holds the reference outputs every later job is compared against:
// the per-cell metrics of the job that computed each cell, and the first
// result of each campaign.
type checker struct {
	cells    map[int64]json.RawMessage
	campaign map[int64]json.RawMessage
}

// check validates one outcome against its class and the references, and
// records what it computed. It returns the reason the job failed, or "".
func (ck *checker) check(o outcome) string {
	if o.err != nil {
		return fmt.Sprintf("%s job on server %d: %v", o.Class, o.Server, o.err)
	}
	if o.Class == "campaign" {
		ref, ok := ck.campaign[o.CertSeed]
		if !ok {
			ck.campaign[o.CertSeed] = o.certify
			return ""
		}
		if !bytes.Equal(ref, o.certify) {
			return fmt.Sprintf("campaign seed %d: certify result differs from the first run", o.CertSeed)
		}
		return ""
	}
	switch {
	case o.Class == "cold" && o.cached != 0:
		return fmt.Sprintf("cold job %s: %d of %d cells served from the store", o.key(), o.cached, o.total)
	case o.Class != "cold" && o.cached != o.total:
		return fmt.Sprintf("%s job %s: only %d of %d cells cached", o.Class, o.key(), o.cached, o.total)
	case len(o.cells) != len(o.Seeds):
		return fmt.Sprintf("%s job %s: %d cells in report", o.Class, o.key(), len(o.cells))
	}
	for seed, m := range o.cells {
		ref, ok := ck.cells[seed]
		switch {
		case o.Class == "cold":
			ck.cells[seed] = m
		case !ok:
			return fmt.Sprintf("%s job %s: seed %d has no cold reference", o.Class, o.key(), seed)
		case !bytes.Equal(ref, m):
			return fmt.Sprintf("%s job %s: seed %d metrics differ from the cold run", o.Class, o.key(), seed)
		}
	}
	return ""
}

// serveSetup starts a cluster and runs the generator's prefill jobs on it,
// recording their outputs as the references later jobs are checked against.
func serveSetup(ctx context.Context, o Options) (*cluster, *generator, *checker, error) {
	cl, err := startCluster(o.Dir, o.Workers)
	if err != nil {
		return nil, nil, nil, err
	}
	g := newGenerator(o.Seed)
	ck := &checker{cells: map[int64]json.RawMessage{}, campaign: map[int64]json.RawMessage{}}
	jobs := g.prefill()
	// Campaigns run after the sweep prefill so the server that runs a
	// campaign second reads the first one's cells through its peer tier.
	split := len(jobs) - 2*campaignSeeds
	for _, part := range [][]job{jobs[:split], jobs[split:]} {
		for _, out := range cl.client.runJobs(ctx, part, o.Workers, nil) {
			if msg := ck.check(out); msg != "" {
				cl.Close()
				return nil, nil, nil, fmt.Errorf("set-up: %s", msg)
			}
		}
	}
	return cl, g, ck, nil
}

// servePhase is the outcome of running rounds back to back for a while.
type servePhase struct {
	outcomes []outcome
	rounds   []float64 // per-round wall, s
	roundOps []int
	roundSim []float64
	peakMem  float64 // over the phase, MiB
	goDelta  []Metric
}

func runServePhase(ctx context.Context, c *client, g *generator, ck *checker, res *Result, workers int, d time.Duration, tr *Tracer) servePhase {
	var p servePhase
	g0 := readGoStats()
	mem := startMemSampler()
	t0 := time.Now()
	for len(p.rounds) == 0 || time.Since(t0) < d {
		r0 := time.Now()
		cold, reads := g.round()
		outs := append(c.runJobs(ctx, cold, workers, tr), c.runJobs(ctx, reads, workers, tr)...)
		p.rounds = append(p.rounds, time.Since(r0).Seconds())
		sim := 0.0
		for _, o := range outs {
			res.Attempted++
			if msg := ck.check(o); msg != "" {
				res.fail(msg)
			}
			sim += o.simSeconds
		}
		p.roundOps = append(p.roundOps, len(outs))
		p.roundSim = append(p.roundSim, sim)
		p.outcomes = append(p.outcomes, outs...)
	}
	p.peakMem = mem.Stop()
	p.goDelta = goDelta(g0, readGoStats(), float64(len(p.outcomes)))
	return p
}

func (p servePhase) jobsPerS() []float64 {
	out := make([]float64, len(p.rounds))
	for i, w := range p.rounds {
		out[i] = float64(p.roundOps[i]) / w
	}
	return out
}

// pick collects a per-job value over the outcomes of one class ("" = all).
func (p servePhase) pick(class string, f func(outcome) float64) []float64 {
	var out []float64
	for _, o := range p.outcomes {
		if o.err == nil && (class == "" || o.Class == class) {
			out = append(out, f(o))
		}
	}
	return out
}

func runServe(ctx context.Context, o Options) (*Result, error) {
	var (
		cl     *cluster
		g      *generator
		ck     *checker
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.Close()
		}
		t0 := time.Now()
		var err error
		if cl, g, ck, err = serveSetup(ctx, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.Close()
	c := cl.client

	res := &Result{}
	measure := o.Duration
	if o.Trace {
		measure /= 2
	}
	plain := runServePhase(ctx, c, g, ck, res, o.Workers, measure, nil)
	latency := func(o outcome) float64 { return o.latency }
	all := plain.pick("", latency)
	simRTF := make([]float64, len(plain.rounds))
	for i, w := range plain.rounds {
		simRTF[i] = plain.roundSim[i] / w
	}
	res.Metrics = []Metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Samples: setups},
		{Name: "sim_rtf", Unit: "s/s", Better: "higher", Samples: simRTF},
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Samples: all},
		{Name: "op_p90_ms", Unit: "ms", Better: "lower", Stat: "p90", Samples: all},
		{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Samples: plain.jobsPerS()},
		one("peak_mem_mb", "MiB", "lower", plain.peakMem),
		{Name: "job_cold_p50_ms", Unit: "ms", Better: "lower", Samples: plain.pick("cold", latency)},
		{Name: "job_cold_p90_ms", Unit: "ms", Better: "lower", Stat: "p90", Samples: plain.pick("cold", latency)},
		{Name: "first_event_cold_p50_ms", Unit: "ms", Better: "lower", Samples: plain.pick("cold", func(o outcome) float64 { return o.firstEvent })},
		{Name: "job_warm_p50_ms", Unit: "ms", Better: "lower", Samples: plain.pick("warm", latency)},
		{Name: "job_warm_p90_ms", Unit: "ms", Better: "lower", Stat: "p90", Samples: plain.pick("warm", latency)},
		{Name: "job_peer_p50_ms", Unit: "ms", Better: "lower", Samples: plain.pick("peer", latency)},
		{Name: "job_campaign_p50_ms", Unit: "ms", Better: "lower", Samples: plain.pick("campaign", latency)},
		one("error_rate", "frac", "lower", res.errorRate()),
	}
	share := "class shares (measured):"
	for _, cls := range Classes {
		n := 0
		for _, out := range plain.outcomes {
			if out.Class == cls {
				n++
			}
		}
		share += fmt.Sprintf(" %s=%.3f", cls, perUnit(float64(n), float64(len(plain.outcomes))))
	}
	res.Notes = append(res.Notes, share, fmt.Sprintf("%d jobs in %d rounds, %d clients", len(plain.outcomes), len(plain.rounds), o.Workers))
	if !o.Trace {
		return res, nil
	}

	// Exact counts come from the first round, whose jobs are a pure function
	// of the seed.
	counts := newCounts()
	var campaignRuns int64
	for _, out := range plain.outcomes[:plain.roundOps[0]] {
		for k, v := range out.events {
			counts.Events[k] += v
		}
		campaignRuns += out.certRuns
	}
	if err := checkCountsKnown(counts); err != nil {
		res.fail(err.Error())
	}

	before, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	tr := &Tracer{}
	prof, traced, err := profiled(func() servePhase { return runServePhase(ctx, c, g, ck, res, o.Workers, measure, tr) })
	if err != nil {
		return nil, err
	}
	after, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	jobs := float64(len(traced.outcomes))
	res.Layers = append(res.Layers, cpuMetrics(CPUByLayer(prof), jobs)...)
	res.Layers = append(res.Layers, plain.goDelta...)
	for _, name := range []string{"submit", "queue", "run", "stream", "report"} {
		res.Layers = append(res.Layers, Metric{Name: "service." + name + "_ms", Unit: "ms", Better: "lower", Samples: tr.Durations("service." + name)})
	}
	res.Layers = append(res.Layers, storeMetrics(before, after, jobs)...)
	res.Layers = append(res.Layers,
		one("trace_overhead_frac", "frac", "lower", 1-median(traced.jobsPerS())/median(plain.jobsPerS())))
	res.Layers = append(res.Layers, countMetrics(counts, campaignRuns)...)
	res.Spans = tr
	return res, nil
}

// stats sums the /stats store counters of both servers.
func (c *client) stats(ctx context.Context) (storeTotals, error) {
	var t storeTotals
	for _, u := range c.url {
		var st service.Stats
		if err := c.do(ctx, http.MethodGet, u+"/stats", nil, http.StatusOK, &st); err != nil {
			return t, err
		}
		if st.Store.Disk == nil || st.Store.Peers == nil {
			return t, errors.New("stats: server runs without disk or peer tier")
		}
		t.memHits += st.Store.Memory.Hits
		t.memMisses += st.Store.Memory.Misses
		t.diskHits += st.Store.Disk.Hits
		t.diskMisses += st.Store.Disk.Misses
		t.peerHits += st.Store.Peers.Hits
		t.peerMisses += st.Store.Peers.Misses
		t.fills += st.Store.Fills
		t.collapsed += st.Store.Collapsed
		t.aborts += st.Store.Aborts
	}
	return t, nil
}

type storeTotals struct {
	memHits, memMisses, diskHits, diskMisses, peerHits, peerMisses int64
	fills, collapsed, aborts                                       int64
}

// storeMetrics turns two /stats snapshots into per-job store counts and the
// hit ratios.
func storeMetrics(a, b storeTotals, jobs float64) []Metric {
	d := func(x, y int64) float64 { return float64(y - x) }
	hits := d(a.memHits, b.memHits) + d(a.diskHits, b.diskHits) + d(a.peerHits, b.peerHits)
	lookups := d(a.memHits, b.memHits) + d(a.memMisses, b.memMisses)
	perJob := func(name, better string, x, y int64) Metric {
		return one("store."+name, "1/op", better, perUnit(d(x, y), jobs))
	}
	return []Metric{
		perJob("memory.hits", "higher", a.memHits, b.memHits),
		perJob("memory.misses", "lower", a.memMisses, b.memMisses),
		perJob("disk.hits", "higher", a.diskHits, b.diskHits),
		perJob("disk.misses", "lower", a.diskMisses, b.diskMisses),
		perJob("peers.hits", "higher", a.peerHits, b.peerHits),
		perJob("peers.misses", "lower", a.peerMisses, b.peerMisses),
		perJob("fills", "lower", a.fills, b.fills),
		perJob("collapsed", "higher", a.collapsed, b.collapsed),
		perJob("aborts", "lower", a.aborts, b.aborts),
		one("store.hit_ratio", "frac", "higher", perUnit(hits, lookups)),
		one("store.disk_hit_frac", "frac", "lower", perUnit(d(a.diskHits, b.diskHits), hits)),
	}
}
