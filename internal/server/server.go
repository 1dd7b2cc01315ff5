package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// Config configures a glimpsed Server.
type Config struct {
	// StateDir holds the job journal and per-job measurement logs — the
	// durable state that survives restarts. Required.
	StateDir string
	// Sessions is the number of tuning sessions run concurrently
	// (default 4).
	Sessions int
	// MaxQueued caps pending jobs; submissions beyond it are rejected
	// with 429 + Retry-After (default 256).
	MaxQueued int
	// DefaultBudget bounds measurements when a spec leaves both budget
	// axes unset (default 192, matching cmd/glimpse).
	DefaultBudget int
	// TenantBudgets maps tenant name to its total GPU-second budget;
	// the budget doubles as the tenant's fair-share weight.
	TenantBudgets map[string]float64
	// CachePath points at a persistent tuned-config store (optional):
	// exact hits are served with zero measurements, misses warm-start.
	CachePath     string
	CacheReadOnly bool
	// WarmK is the donor-device count per warm start (default 3).
	WarmK int
	// ArtifactsDir persists trained toolkits across restarts (optional;
	// used by the default ToolkitProvider).
	ArtifactsDir string
	// Toolkits supplies trained toolkits (default: train-and-cache,
	// NewTrainingToolkits(ArtifactsDir)).
	Toolkits ToolkitProvider
	// NewMeasurer builds the per-job measurement backend for a GPU; the
	// returned closer runs when the job stops. Default: the in-process
	// simulator.
	NewMeasurer func(gpu string) (m measure.Measurer, closer func() error, err error)
	// Log receives operational messages (default os.Stderr; io.Discard
	// silences).
	Log io.Writer
	// Tracer records the service's side of each job's distributed trace:
	// queue_wait and job spans keyed by "job-<id>", with the session's
	// step/measure spans (and, over RPC, the endpoints' rpc_measure
	// spans) below them. Nil disables tracing; traced and untraced runs
	// produce byte-identical results.
	Tracer *telemetry.Tracer
	// Metrics receives the per-tenant service metric families served on
	// /metricsz and /telemetryz (default: a private registry).
	Metrics *telemetry.Registry
	// Clock times queue waits, step latencies, and time-to-first-progress
	// (default SystemClock; tests inject a *telemetry.FakeClock). It
	// feeds observability only, never the tuning loop.
	Clock telemetry.Clock
	// SLOs configures service-level objectives. The zero value disables
	// SLO tracking, keeping the SSE wire format exactly as documented.
	SLOs SLOConfig
}

// runningJob tracks one in-flight session and its control channels.
type runningJob struct {
	job       *Job
	preempt   chan struct{} // closed: yield back to the queue
	cancel    chan struct{} // closed: stop with state canceled
	preempted bool          // close-once guards, under Server.mu
	canceled  bool
}

// Server is the glimpsed daemon: a job queue, a worker pool of resumable
// tuning sessions, an SSE hub, and the HTTP API tying them together.
type Server struct {
	cfg    Config
	store  *store
	queue  *queue
	hub    *hub
	ledger *tuner.Ledger
	cache  *cache.Store

	tracer  *telemetry.Tracer
	metrics *telemetry.Registry
	clock   telemetry.Clock
	slo     *sloTracker
	// chargeMu serializes ledger charges with their mirrored gpu_seconds
	// counter updates so the two totals reconcile exactly (see charge).
	chargeMu sync.Mutex

	hs       *http.Server
	ln       net.Listener
	workerWG sync.WaitGroup
	httpWG   sync.WaitGroup

	mu            sync.Mutex
	jobs          map[string]*Job
	order         []*Job // submission order
	running       map[string]*runningJob
	draining      bool
	started       bool
	cancelWorkers context.CancelFunc
}

// New opens the state directory, recovers journaled jobs (re-enqueuing
// any that were interrupted), rebuilds the tenant ledger from recorded
// results and measurement logs, and opens the tuned-config cache.
// Call Start to begin serving.
func New(cfg Config) (*Server, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 256
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = 192
	}
	if cfg.WarmK <= 0 {
		cfg.WarmK = 3
	}
	if cfg.Toolkits == nil {
		cfg.Toolkits = NewTrainingToolkits(cfg.ArtifactsDir)
	}
	if cfg.NewMeasurer == nil {
		cfg.NewMeasurer = func(gpu string) (measure.Measurer, func() error, error) {
			m, err := measure.NewLocal(gpu)
			return m, func() error { return nil }, err
		}
	}
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = telemetry.SystemClock()
	}

	st, recovered, err := openStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	ledger := tuner.NewLedger()
	for tenant, budget := range cfg.TenantBudgets {
		ledger.SetBudget(tenant, budget)
	}
	s := &Server{
		cfg:     cfg,
		store:   st,
		queue:   newQueue(ledger),
		hub:     newHub(),
		ledger:  ledger,
		tracer:  cfg.Tracer,
		metrics: cfg.Metrics,
		clock:   cfg.Clock,
		slo:     newSLOTracker(cfg.SLOs),
		jobs:    map[string]*Job{},
		running: map[string]*runningJob{},
	}
	if cfg.CachePath != "" {
		if cfg.CacheReadOnly {
			s.cache, err = cache.OpenReadOnly(cfg.CachePath)
		} else {
			s.cache, err = cache.Open(cfg.CachePath)
		}
		if err != nil {
			_ = st.close()
			return nil, err
		}
	}
	s.recoverJobs(recovered)
	return s, nil
}

// recover rebuilds in-memory state from journaled jobs: the ledger is
// re-charged from results and partial measurement logs (so post-restart
// accounting still reconciles with total session spend), terminal jobs
// get their streams replayed and closed, and interrupted jobs re-enter
// the queue in submission order.
func (s *Server) recoverJobs(recovered []*Job) {
	for _, j := range recovered {
		s.jobs[j.ID] = j
		s.order = append(s.order, j)
		switch {
		case j.State == StateDone && j.Result != nil:
			s.charge(j.Spec.Tenant, j.Result.GPUSeconds, j.Result.Measurements)
			s.ledger.AddJob(j.Spec.Tenant)
		default:
			// Failed, canceled, and interrupted jobs spent whatever their
			// measurement logs recorded.
			if data, err := os.ReadFile(s.store.measPath(j.ID)); err == nil {
				if entries, err := tlog.Read(bytes.NewReader(data)); err == nil {
					s.charge(j.Spec.Tenant, tlog.GPUSeconds(entries), len(entries))
				}
			}
		}
		if j.State.terminal() {
			s.hub.publish(j.ID, ProgressEvent{Kind: "state", State: string(j.State), Detail: j.Detail})
			if j.Result != nil {
				s.hub.publish(j.ID, ProgressEvent{
					Kind:         "result",
					Measurements: j.Result.Measurements,
					BestGFLOPS:   j.Result.BestGFLOPS,
					GPUSeconds:   j.Result.GPUSeconds,
				})
			}
			s.hub.close(j.ID)
			continue
		}
		s.hub.publish(j.ID, ProgressEvent{Kind: "state", State: string(StateQueued), Detail: j.Detail})
		s.beginQueueWait(j)
		s.queue.push(j)
	}
}

// Start binds the listener, launches the worker pool and the HTTP
// serving loop, and returns the bound address. ctx is the root the
// workers run under; canceling it checkpoints every in-flight session
// (Drain does this and also shuts the HTTP side down).
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return "", fmt.Errorf("server: already started")
	}
	s.started = true
	s.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	wctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.ln = ln
	s.cancelWorkers = cancel
	s.hs = &http.Server{Handler: s.routes()}
	s.mu.Unlock()

	for i := 0; i < s.cfg.Sessions; i++ {
		s.workerWG.Add(1)
		go s.worker(wctx)
	}
	s.httpWG.Add(1)
	go s.serveHTTP()
	return ln.Addr().String(), nil
}

// worker runs queued jobs until its context is canceled. Joined by
// workerWG; canceling the Start context stops it at the next step
// boundary.
func (s *Server) worker(ctx context.Context) {
	defer s.workerWG.Done()
	for {
		// Check cancellation before popping: runJob requeues drained jobs,
		// so popping past cancellation would spin on the same job forever.
		select {
		case <-ctx.Done():
			return
		default:
		}
		j := s.queue.pop()
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-s.queue.wake:
				continue
			}
		}
		rj := &runningJob{job: j, preempt: make(chan struct{}), cancel: make(chan struct{})}
		s.mu.Lock()
		s.running[j.ID] = rj
		s.mu.Unlock()
		// runJob ends in finishJob or requeue, which drop j from running.
		s.runJob(ctx, rj)
	}
}

// serveHTTP is the accept loop; http.ErrServerClosed is the clean
// shutdown path. Joined by httpWG via Drain/Close calling hs.Shutdown.
func (s *Server) serveHTTP() {
	defer s.httpWG.Done()
	if err := s.hs.Serve(s.ln); err != nil && err != http.ErrServerClosed {
		s.logf("glimpsed: http serve: %v\n", err)
	}
}

// Addr returns the bound address (after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain shuts the server down gracefully: new submissions get 503 +
// Retry-After, every in-flight session checkpoints at its next step
// boundary and re-journals as queued (zero lost jobs), SSE streams are
// severed, and the HTTP server shuts down under ctx. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	cancel := s.cancelWorkers
	hs := s.hs
	s.mu.Unlock()

	if cancel != nil {
		cancel()
	}
	// Sessions checkpoint between steps; a step is one measurement batch,
	// so this wait is bounded by single-batch latency.
	s.workerWG.Wait()
	s.hub.closeAll()
	var firstErr error
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			firstErr = err
		}
	}
	s.httpWG.Wait()
	if err := s.closeStores(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// DrainForced drains gracefully, but a receive on force (typically a
// second SIGTERM) abandons the graceful path and closes immediately.
// Lives here rather than in cmd/glimpsed because command mains spawn no
// goroutines (the rawgo contract); the helper goroutine's send lands in
// a buffered channel, so it completes even when force wins the race.
func (s *Server) DrainForced(ctx context.Context, force <-chan os.Signal) error {
	done := make(chan error, 1)
	go func() { done <- s.Drain(ctx) }()
	select {
	case err := <-done:
		return err
	case <-force:
		return s.Close()
	}
}

// Close shuts down without waiting for in-flight HTTP requests (workers
// still checkpoint; the job journal stays consistent).
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	cancel := s.cancelWorkers
	hs := s.hs
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.workerWG.Wait()
	s.hub.closeAll()
	var firstErr error
	if hs != nil && !alreadyDraining {
		if err := hs.Close(); err != nil {
			firstErr = err
		}
	}
	s.httpWG.Wait()
	if err := s.closeStores(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (s *Server) closeStores() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	err := s.store.close()
	s.store.f = nil
	s.store = nil
	if s.cache != nil {
		if cerr := s.cache.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.cache = nil
	}
	return err
}

// setState journals and publishes a non-terminal state transition.
func (s *Server) setState(j *Job, state JobState, detail string) {
	s.mu.Lock()
	j.State = state
	j.Detail = detail
	if state != StateRunning {
		// A job leaving the running state gives up its session slot in
		// the same critical section, so no reader sees it queued (or
		// terminal, in finishJob) and still running.
		delete(s.running, j.ID)
	}
	snap := *j
	s.mu.Unlock()
	if err := s.store.appendState(&snap); err != nil {
		s.logf("glimpsed: job %s: journal: %v\n", j.ID, err)
	}
	s.hub.publish(j.ID, ProgressEvent{Kind: "state", State: string(state), Detail: detail})
}

// requeue sends a preempted or drained job back to the queue; its
// measurement log checkpoint makes the next run resume where it
// stopped.
func (s *Server) requeue(j *Job, detail string) {
	s.setState(j, StateQueued, detail)
	s.beginQueueWait(j)
	s.queue.push(j)
}

// finishJob journals and publishes a terminal transition, closing the
// job's stream.
func (s *Server) finishJob(j *Job, state JobState, detail string, res *tuner.Result) {
	// Outcome metrics and SLO accounting come first: a client that sees
	// the job terminal on GET /v1/jobs/{id} must find it counted on
	// /metricsz and /telemetryz, and the burn stamped on the terminal
	// event must reflect this job's own outcome.
	switch state {
	case StateDone:
		s.tenantCounter(mJobsDone, j.Spec.Tenant).Inc()
		s.slo.observeOutcome(true)
	case StateFailed:
		s.tenantCounter(mJobsFailed, j.Spec.Tenant).Inc()
		s.slo.observeOutcome(false)
	}
	s.mu.Lock()
	j.State = state
	j.Detail = detail
	delete(s.running, j.ID)
	if res != nil {
		j.Result = res
	}
	snap := *j
	s.mu.Unlock()
	if err := s.store.appendState(&snap); err != nil {
		s.logf("glimpsed: job %s: journal: %v\n", j.ID, err)
	}
	ev := ProgressEvent{Kind: "state", State: string(state), Detail: detail}
	if s.slo != nil {
		ev.SLOBurn = s.slo.maxBurn()
	}
	s.hub.publish(j.ID, ev)
	if res != nil {
		s.hub.publish(j.ID, ProgressEvent{
			Kind:         "result",
			Measurements: res.Measurements,
			BestGFLOPS:   res.BestGFLOPS,
			GPUSeconds:   res.GPUSeconds,
		})
	}
	s.hub.close(j.ID)
}

// maybePreempt fires when a submission outranks every idle slot: if all
// workers are busy and the lowest-priority running job ranks below the
// new one, that session yields at its next step boundary and re-queues
// (keeping its checkpoint), freeing the slot for the fair-queue pick.
func (s *Server) maybePreempt(newJob *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.running) < s.cfg.Sessions {
		return
	}
	var victim *runningJob
	for _, rj := range s.running {
		if rj.preempted || rj.canceled {
			continue
		}
		if victim == nil ||
			rj.job.Spec.Priority < victim.job.Spec.Priority ||
			(rj.job.Spec.Priority == victim.job.Spec.Priority && rj.job.seq > victim.job.seq) {
			victim = rj
		}
	}
	if victim != nil && victim.job.Spec.Priority < newJob.Spec.Priority {
		victim.preempted = true
		s.tenantCounter(mPreemptions, victim.job.Spec.Tenant).Inc()
		close(victim.preempt)
	}
}

func (s *Server) logf(format string, args ...any) {
	_, _ = fmt.Fprintf(s.cfg.Log, format, args...)
}

// ---- HTTP API ----

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /telemetryz", s.handleTelemetryz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed encode means the client went away mid-response.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "server draining, resubmit after restart")
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	spec.normalize(s.cfg.DefaultBudget)
	if err := spec.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.queue.depth() >= s.cfg.MaxQueued {
		s.tenantCounter(mRejections, spec.Tenant).Inc()
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	}

	s.mu.Lock()
	id := s.store.nextID()
	j := &Job{ID: id, Spec: spec, State: StateQueued}
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil {
		j.seq = n
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	if err := s.store.appendSubmit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("journal: %v", err))
		return
	}
	s.hub.publish(id, ProgressEvent{Kind: "state", State: string(StateQueued)})
	s.beginQueueWait(j)
	s.queue.push(j)
	s.maybePreempt(j)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

// jobView is the API projection of a Job (stable field order).
type jobView struct {
	ID     string        `json:"id"`
	State  JobState      `json:"state"`
	Tenant string        `json:"tenant"`
	Spec   JobSpec       `json:"spec"`
	Detail string        `json:"detail,omitempty"`
	Cached bool          `json:"cached,omitempty"`
	Warm   bool          `json:"warm,omitempty"`
	Result *tuner.Result `json:"result,omitempty"`
}

func (s *Server) viewOf(j *Job, withResult bool) jobView {
	v := jobView{ID: j.ID, State: j.State, Tenant: j.Spec.Tenant, Spec: j.Spec,
		Detail: j.Detail, Cached: j.Cached, Warm: j.Warm}
	if withResult {
		v.Result = j.Result
	}
	return v
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobView, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.viewOf(j, false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	v := s.viewOf(j, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state := j.State
	res := j.Result
	s.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s, no result yet", state))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	if j.State.terminal() {
		state := j.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("job already %s", state))
		return
	}
	if rj, running := s.running[id]; running {
		if !rj.canceled {
			rj.canceled = true
			close(rj.cancel)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceling"})
		return
	}
	s.mu.Unlock()
	if s.queue.remove(id) {
		s.endQueueWait(j)
		s.finishJob(j, StateCanceled, "canceled while queued", nil)
		s.discardSessionLog(id)
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": string(StateCanceled)})
		return
	}
	// Lost the race with a worker pop: the job is running now, cancel it
	// there.
	s.mu.Lock()
	if rj, running := s.running[id]; running && !rj.canceled {
		rj.canceled = true
		close(rj.cancel)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceling"})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	cursor := 0
	for {
		evs, done, wait := s.hub.since(id, cursor)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			flusher.Flush()
			cursor += len(evs)
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// tenantsView reconciles queue/ledger accounting for operators and the
// bench harness.
type tenantsView struct {
	Tenants []tuner.TenantSpend `json:"tenants"`
	Queued  int                 `json:"queued"`
	Running int                 `json:"running"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running := len(s.running)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, tenantsView{
		Tenants: s.ledger.Snapshot(),
		Queued:  s.queue.depth(),
		Running: running,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "draining": draining})
}

// jobsSorted is a test/debug helper: all jobs in submission order.
func (s *Server) jobsSorted() []jobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]jobView, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.viewOf(j, true))
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
