package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/falsify"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// JobView is the JSON projection of a Job returned by the job endpoints.
// Exactly one of Spec, Falsify and Certify is populated, matching the job
// type.
type JobView struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	Status   Status          `json:"status"`
	Spec     JobSpec         `json:"spec,omitzero"`
	Falsify  *FalsifyJobSpec `json:"falsify,omitempty"`
	Certify  *CertifyJobSpec `json:"certify,omitempty"`
	Cells    CellsView       `json:"cells"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	Error    string          `json:"error,omitempty"`
	// Report is present once a sweep job reached a terminal state;
	// FalsifyResult and CertifyResult are its campaign-job counterparts.
	Report        *ReportView     `json:"report,omitempty"`
	FalsifyResult *falsify.Result `json:"falsify_result,omitempty"`
	CertifyResult *certify.Result `json:"certify_result,omitempty"`
}

// CellsView is the job's grid-cell progress.
type CellsView struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
}

// ReportView is the JSON projection of a fleet.Report: the aggregates plus
// one row per mission with its deterministic verdict.
type ReportView struct {
	// Policy is the canonical switching-policy spec every mission of the job
	// ran ("soter-fig9" unless overridden) — sweep output stays
	// self-describing when jobs differ only by policy.
	Policy              string     `json:"policy"`
	Missions            int        `json:"missions"`
	Failed              int        `json:"failed"`
	Crashes             int        `json:"crashes"`
	Landings            int        `json:"landings"`
	Disengagements      int        `json:"disengagements"`
	Reengagements       int        `json:"reengagements"`
	InvariantViolations int        `json:"invariant_violations"`
	DroppedFirings      int        `json:"dropped_firings"`
	SimTime             Duration   `json:"sim_time"`
	Wall                Duration   `json:"wall"`
	DistanceKm          float64    `json:"distance_km"`
	Workers             int        `json:"workers"`
	Results             []CellView `json:"results"`
}

// CellView is one mission's verdict inside a ReportView.
type CellView struct {
	Name    string      `json:"name"`
	Seed    int64       `json:"seed"`
	Cached  bool        `json:"cached,omitempty"`
	WallMS  float64     `json:"wall_ms"`
	Error   string      `json:"error,omitempty"`
	Metrics sim.Metrics `json:"metrics,omitzero"`
}

// reportView projects a fleet report into its wire form; policy is the job's
// canonical switching-policy spec.
func reportView(rep *fleet.Report, policy string) *ReportView {
	v := &ReportView{
		Policy:              policy,
		Missions:            rep.Missions,
		Failed:              rep.Failed,
		Crashes:             rep.Crashes,
		Landings:            rep.Landings,
		Disengagements:      rep.Disengagements,
		Reengagements:       rep.Reengagements,
		InvariantViolations: rep.InvariantViolations,
		DroppedFirings:      rep.DroppedFirings,
		SimTime:             Duration(rep.SimTime),
		Wall:                Duration(rep.Wall),
		DistanceKm:          rep.DistanceKm,
		Workers:             rep.Workers,
		Results:             make([]CellView, 0, len(rep.Results)),
	}
	for _, res := range rep.Results {
		cell := CellView{
			Name:   res.Name,
			Seed:   res.Seed,
			Cached: res.Cached,
			WallMS: float64(res.Wall) / float64(time.Millisecond),
		}
		if res.Err != nil {
			cell.Error = res.Err.Error()
		} else {
			cell.Metrics = res.Metrics
		}
		v.Results = append(v.Results, cell)
	}
	return v
}

// view snapshots the job into its wire form.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		Status:   j.status,
		Cells:    CellsView{Done: j.cellsDone, Cached: j.cellsCached},
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.kind.describe(&v, j.result)
	return v
}

// scenarioView is one /scenarios catalog entry.
type scenarioView struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Duration    Duration `json:"duration"`
}

// Handler adapts the server to HTTP. Routes:
//
//	GET    /healthz             liveness probe
//	GET    /scenarios           the scenario catalog (incl. auto-registered
//	                            falsified/<hash> counterexamples)
//	GET    /stats               cache counters and job tallies
//	POST   /jobs                submit a JobSpec; 202 + JobView
//	POST   /falsify             submit a FalsifyJobSpec; 202 + JobView
//	POST   /certify             submit a CertifyJobSpec; 202 + JobView
//	GET    /falsify/strategies  the falsification strategy catalog
//	GET    /jobs                list jobs (every kind)
//	GET    /jobs/{id}           job status, progress and (when done) result
//	GET    /jobs/{id}/events    the job's event stream as JSON Lines
//	GET    /jobs/{id}/report    the report/result alone; 409 until terminal
//	POST   /jobs/{id}/cancel    cancel (also DELETE /jobs/{id})
//	GET    /store/{key}         raw result bytes by fingerprint — the peer
//	                            protocol (local tiers only, never recursive)
//	GET    /debug/pprof/...     live runtime profiles (CPU, heap, goroutine)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Registering pprof on the server's own mux (rather than the global
	// http.DefaultServeMux side effect of a blank import) keeps the profiles
	// reachable however the handler is mounted — `go tool pprof
	// http://host/debug/pprof/profile` against a serving instance under fleet
	// load is the live counterpart of soter-bench's -cpuprofile.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, r *http.Request) {
		specs := scenario.All()
		out := make([]scenarioView, 0, len(specs))
		for _, sp := range specs {
			out = append(out, scenarioView{Name: sp.Name, Description: sp.Description, Duration: Duration(sp.Duration)})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	// The peer protocol: siblings configured with this server in their -peers
	// list fetch result bytes here. Only the local tiers (memory, disk) are
	// consulted, so a peer lookup can never recurse into further peer
	// lookups; the checksum header lets the fetcher reject garbled bodies.
	mux.HandleFunc("GET /store/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !store.ValidKey(key) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed store key %q", key))
			return
		}
		val, ok := s.store.GetLocal(r.Context(), key)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no entry for %s", key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(store.SumHeader, store.Sum(val))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(val)
	})
	for _, route := range []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"POST /jobs", submitHandler("job spec", s.Submit)},
		{"POST /falsify", submitHandler("falsify spec", s.SubmitFalsify)},
		{"POST /certify", submitHandler("certify spec", s.SubmitCertify)},
	} {
		mux.HandleFunc(route.pattern, route.handler)
	}
	mux.HandleFunc("GET /falsify/strategies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, falsify.StrategyNames())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobView, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.view())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := s.Job(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, j.view())
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		if !j.Status().Terminal() {
			writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; report not ready", j.ID(), j.Status()))
			return
		}
		writeJSON(w, http.StatusOK, j.report())
	})
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	cancel := func(w http.ResponseWriter, r *http.Request) {
		// Hold the *Job across the cancel so a concurrent retention eviction
		// (which only removes table entries) cannot leave us dereferencing a
		// second, failed lookup.
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		j.requestCancel()
		writeJSON(w, http.StatusOK, j.view())
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{id}", cancel)
	return mux
}

// maxRequestBytes bounds a job submission's body. The largest legitimate
// request — an explicit seed list — stays far below it; the decoder stops
// reading at the bound, so no client can make a handler buffer an unbounded
// body.
const maxRequestBytes = 1 << 20

// submitHandler is the one POST adapter of every job kind: decode the
// request strictly (unknown fields and oversized bodies are rejected),
// submit it, and answer 202 with the queued job's view. Capacity and
// shutdown rejections map to 503 so clients retry; anything else is the
// request's fault.
func submitHandler[T any](what string, submit func(T) (*Job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec T
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeErr(w, status, fmt.Errorf("decode %s: %w", what, err))
			return
		}
		job, err := submit(spec)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrBusy) || errors.Is(err, ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeErr(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.view())
	}
}

// handleEvents streams the job's event stream as JSON Lines: first the replay
// ring (so a subscriber arriving after the job finished still sees the whole
// retained stream), then live events until the job ends or the client leaves.
// An optional ?kinds=mode_switch,crash narrows the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	mask := StreamKinds
	if arg := r.URL.Query().Get("kinds"); arg != "" {
		var err error
		if mask, err = parseKinds(arg); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	replay, live, cancel := j.Subscribe(mask, s.cfg.EventBuffer)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeEvent := func(e obs.Event) bool {
		line, err := obs.MarshalEvent(e)
		if err != nil {
			return false
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if !writeEvent(e) {
				return
			}
		}
	}
}

// parseKinds resolves a comma-separated list of event kind names ("crash",
// "mode_switch", ...) into a mask, restricted to the kinds the fan-out
// captures.
func parseKinds(arg string) (obs.KindSet, error) {
	byName := make(map[string]obs.Kind, obs.KindCount)
	for k := obs.Kind(0); int(k) < obs.KindCount; k++ {
		byName[k.String()] = k
	}
	var mask obs.KindSet
	for _, name := range strings.Split(arg, ",") {
		k, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return 0, fmt.Errorf("unknown event kind %q", name)
		}
		if !StreamKinds.Has(k) {
			// Valid kind, but one the fan-out never captures — an empty
			// 200 stream would look like a job that emits nothing.
			return 0, fmt.Errorf("event kind %q is not carried by job streams (streamed kinds: %s)",
				name, streamKindNames())
		}
		mask |= obs.Kinds(k)
	}
	return mask, nil
}

// streamKindNames lists the wire names of StreamKinds, for error messages.
func streamKindNames() string {
	var names []string
	for k := obs.Kind(0); int(k) < obs.KindCount; k++ {
		if StreamKinds.Has(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, ", ")
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
