package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// Per-tenant metric family names. Each family is labeled by tenant
// (telemetry.Labeled), so one registry serves every tenant and names sort
// into per-family groups on /metricsz.
const (
	mQueueWaitMS = "glimpsed_queue_wait_ms"      // histogram: push -> worker pop
	mTTFPMS      = "glimpsed_ttfp_ms"            // histogram: submit -> first progress
	mStepMS      = "glimpsed_step_ms"            // histogram: one TuneSession.Step
	mPreemptions = "glimpsed_preemptions"        // counter: sessions yielded to higher priority
	mCacheHits   = "glimpsed_cache_hits"         // counter: jobs served from the tuned-config store
	mRejections  = "glimpsed_admission_rejected" // counter: submissions bounced by the queue cap
	mGPUSeconds  = "glimpsed_gpu_seconds"        // fcounter: ledger-reconciled tenant spend
	mJobsDone    = "glimpsed_jobs_done"          // counter: terminal done
	mJobsFailed  = "glimpsed_jobs_failed"        // counter: terminal failed
)

func (s *Server) tenantCounter(family, tenant string) *telemetry.Counter {
	return s.metrics.Counter(telemetry.Labeled(family, "tenant", tenant))
}

func (s *Server) tenantHist(family, tenant string) *telemetry.Histogram {
	return s.metrics.Histogram(telemetry.Labeled(family, "tenant", tenant), telemetry.LatencyBoundsMS())
}

// charge is the single path for tenant spend: the ledger and the
// per-tenant gpu_seconds counter are updated under one mutex, in the same
// order, with the same float64 deltas — so the /metricsz totals reconcile
// exactly (bitwise) with tuner.Ledger.Snapshot at any instant.
func (s *Server) charge(tenant string, gpuSeconds float64, measurements int) {
	s.chargeMu.Lock()
	s.ledger.Charge(tenant, gpuSeconds, measurements)
	s.metrics.FloatCounter(telemetry.Labeled(mGPUSeconds, "tenant", tenant)).Add(gpuSeconds)
	s.chargeMu.Unlock()
}

// jobTrace is the job's root trace context: the trace ID derives from the
// job ID, so a recovered job rejoins the same distributed trace it
// started in a previous server life, and every process's spans for one
// job merge under one TraceID (cmd/tracereport -merge).
func (s *Server) jobTrace(j *Job) telemetry.SpanContext {
	return telemetry.SpanContext{TraceID: "job-" + j.ID, JobID: j.ID, Tenant: j.Spec.Tenant}
}

// beginQueueWait opens the job's queue_wait span and stamps the wait
// start. Called whenever the job (re)enters the queue: submit, requeue
// after preemption or drain, and recovery.
func (s *Server) beginQueueWait(j *Job) {
	now := s.clock.Now()
	sp, _ := s.tracer.StartSpan(s.jobTrace(j), telemetry.StageQueueWait)
	s.mu.Lock()
	if j.created.IsZero() {
		j.created = now
	}
	j.queuedAt = now
	j.queueSpan = sp
	s.mu.Unlock()
}

// endQueueWait closes the open queue_wait span (if any) and feeds the
// wait into the tenant's queue-wait histogram. Called when a worker pops
// the job, and when a queued job is canceled.
func (s *Server) endQueueWait(j *Job) {
	now := s.clock.Now()
	s.mu.Lock()
	sp := j.queueSpan
	j.queueSpan = telemetry.Span{}
	queuedAt := j.queuedAt
	j.queuedAt = time.Time{}
	tenant := j.Spec.Tenant
	s.mu.Unlock()
	sp.End()
	if !queuedAt.IsZero() {
		s.tenantHist(mQueueWaitMS, tenant).Observe(float64(now.Sub(queuedAt).Microseconds()) / 1000)
	}
}

// observeFirstProgress records the job's time-to-first-progress — once
// per job lifetime, however many times it is preempted and resumed — into
// the tenant's ttfp histogram and the latency SLO.
func (s *Server) observeFirstProgress(j *Job) {
	now := s.clock.Now()
	s.mu.Lock()
	if j.ttfpSeen || j.created.IsZero() {
		s.mu.Unlock()
		return
	}
	j.ttfpSeen = true
	created := j.created
	tenant := j.Spec.Tenant
	s.mu.Unlock()
	ms := float64(now.Sub(created).Microseconds()) / 1000
	s.tenantHist(mTTFPMS, tenant).Observe(ms)
	s.slo.observeTTFP(ms)
}

// telemetryView is the /telemetryz body: service shape, per-tenant ledger
// spend, SLO status, and the full metrics snapshot — everything
// cmd/glimpsetop renders in one poll.
type telemetryView struct {
	Draining bool                `json:"draining"`
	Sessions int                 `json:"sessions"`
	Workers  int                 `json:"workers"`
	Queued   int                 `json:"queued"`
	Running  int                 `json:"running"`
	Jobs     int                 `json:"jobs"`
	Tenants  []tuner.TenantSpend `json:"tenants"`
	SLOs     []SLOStatus         `json:"slos,omitempty"`
	Metrics  telemetry.Snapshot  `json:"metrics"`
}

func (s *Server) telemetryView() telemetryView {
	s.mu.Lock()
	v := telemetryView{
		Draining: s.draining,
		Sessions: s.cfg.Sessions,
		Workers:  parallel.DefaultWorkers(),
		Running:  len(s.running),
		Jobs:     len(s.order),
	}
	s.mu.Unlock()
	v.Queued = s.queue.depth()
	v.Tenants = s.ledger.Snapshot()
	v.SLOs = s.slo.snapshot()
	v.Metrics = s.metrics.Snapshot()
	return v
}

func (s *Server) handleTelemetryz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.telemetryView())
}

// handleMetricsz renders the registry (and SLO status, when configured)
// as a fixed-width text table for operators and scrapers.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString(s.metrics.Snapshot().Table("glimpsed metrics"))
	for _, st := range s.slo.snapshot() {
		fmt.Fprintf(&b, "slo %-14s objective=%.4g good=%d total=%d bad=%.4g burn=%.4g\n",
			st.Name, st.Objective, st.Good, st.Total, st.BadFraction, st.Burn)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(b.String())) // client gone mid-reply is its problem
}
