package telemetry

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names emitted by the instrumented tuning loop and fleet layers.
// cmd/tracereport groups a trace by these; free-form stages are fine too.
const (
	StagePriorSample    = "prior_sample"    // §3.1 Blueprint-prior batch draw
	StageAnneal         = "anneal"          // SA proposal over the surrogate
	StageEnsembleVote   = "ensemble_vote"   // §3.3 invalid-config filtering
	StageSurrogateTrain = "surrogate_train" // GP fit on measurements
	StageSurrogateScore = "surrogate_score" // GP posterior over the pool
	StageAcquisition    = "acquisition"     // §3.2 neural acquisition scoring
	StageMeasure        = "measure"         // hardware measurement batch
	StageCheckpoint     = "checkpoint"      // durable task-plan append
	StageCacheLookup    = "cache_lookup"    // tuned-config store consultation
	StageGBTTrain       = "gbt_train"       // baseline cost-model fit
	StageTask           = "task"            // one whole tuning task (fleet)
	StageShard          = "shard"           // one shard of a sharded fleet run
	StageDispatch       = "dispatch"        // one sharded measurement fan-out
	StageSteal          = "steal"           // work-stealing events (tasks, endpoints)
	StageSpeculate      = "speculate"       // straggler re-issue events
	StageJob            = "job"             // one whole service job (glimpsed)
	StageStep           = "step"            // one propose→measure→update round
	StageQueueWait      = "queue_wait"      // admission→dispatch wait in the job queue
	StageRPCMeasure     = "rpc_measure"     // measured's side of one RPC measurement batch
)

// SpanContext identifies a position in a distributed trace and carries
// the job baggage that crosses goroutine and process boundaries. It
// holds no wall-clock fields, so propagating it cannot steer tuning:
// traced and untraced runs stay byte-identical (the PR 2 determinism
// contract). The zero value means "not part of a trace" and is safe to
// pass everywhere.
type SpanContext struct {
	TraceID string `json:"trace,omitempty"`
	SpanID  string `json:"span,omitempty"`
	JobID   string `json:"job,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
}

// Valid reports whether the context belongs to a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

// SpanEvent is one line of a trace file. Kind is "span" for a timed
// region and "event" for an instant occurrence (retry, breaker flip).
// Times are microseconds relative to the tracer's first observation, so
// traces are compact and fake-clock tests are byte-reproducible.
type SpanEvent struct {
	Seq      int            `json:"seq"`
	Kind     string         `json:"kind"`
	Stage    string         `json:"stage"`
	TraceID  string         `json:"trace,omitempty"`
	SpanID   string         `json:"span,omitempty"`
	ParentID string         `json:"parent,omitempty"`
	JobID    string         `json:"job,omitempty"`
	Tenant   string         `json:"tenant,omitempty"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Tracer records spans and events as JSONL. A nil *Tracer is the disabled
// tracer: every method is a no-op costing a nil check (see
// BenchmarkTracerDisabled), so instrumented code calls it unconditionally.
// It is safe for concurrent use; write errors are latched, not returned,
// so tracing can never fail a tuning run (check Err at shutdown).
type Tracer struct {
	clock Clock
	proc  string       // span-ID prefix distinguishing this process in merged traces
	ids   atomic.Int64 // span-ID allocator; IDs are per-process, not per-trace

	mu    sync.Mutex
	w     io.Writer
	seq   int
	start time.Time // trace origin: the instant the tracer was built
	err   error
}

// NewTracer emits JSONL trace lines to w, timing spans against clock
// (SystemClock in binaries, a *FakeClock in tests). A nil clock defaults
// to SystemClock. Span/event timestamps are relative to this call.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	return NewTracerProc(w, clock, "")
}

// NewTracerProc is NewTracer with a process label: span IDs allocated by
// StartSpan are prefixed "proc/", so spans from different processes never
// collide when their trace files are merged (MergeTraces).
func NewTracerProc(w io.Writer, clock Clock, proc string) *Tracer {
	if clock == nil {
		clock = SystemClock()
	}
	return &Tracer{clock: clock, proc: proc, w: w, start: clock.Now()}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Err returns the first write or marshal error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Span is an in-flight timed region. The zero Span (from a nil tracer) is
// inert: SetAttr and End on it are no-ops.
type Span struct {
	t      *Tracer
	stage  string
	start  time.Time
	attrs  map[string]any
	sc     SpanContext // this span's own context (SpanID set by StartSpan)
	parent string      // parent span ID, if opened with StartSpan
}

// Start opens a span for stage. Call End (usually deferred) to emit it.
func (t *Tracer) Start(stage string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, start: t.clock.Now()}
}

// StartSpan opens a span for stage as a child of sc, allocating the new
// span's ID and returning the child context to hand to downstream work
// (deeper spans, or the RPC wire via measure.MeasureArgs). On a nil
// tracer the span is inert and the returned context is sc unchanged, so
// baggage still flows through processes that trace nothing.
func (t *Tracer) StartSpan(sc SpanContext, stage string) (Span, SpanContext) {
	if t == nil {
		return Span{}, sc
	}
	child := sc
	child.SpanID = t.nextSpanID()
	return Span{t: t, stage: stage, start: t.clock.Now(), sc: child, parent: sc.SpanID}, child
}

// Context returns the span's own context (zero for a span opened with
// Start or on a disabled tracer).
func (s *Span) Context() SpanContext { return s.sc }

func (t *Tracer) nextSpanID() string {
	n := strconv.FormatInt(t.ids.Add(1), 10)
	if t.proc == "" {
		return n
	}
	return t.proc + "/" + n
}

// SetAttr attaches a key/value attribute to the span before End.
func (s *Span) SetAttr(key string, v any) {
	if s.t == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// End emits the span with its measured duration.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.clock.Now()
	s.t.emit("span", s.stage, s.start, end.Sub(s.start), s.attrs, s.sc, s.parent)
}

// Event emits an instant (zero-duration) occurrence, e.g. a retry or a
// breaker transition.
func (t *Tracer) Event(stage string, attrs map[string]any) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	t.emit("event", stage, now, 0, attrs, SpanContext{}, "")
}

// EventCtx is Event stamped with trace identity: the occurrence is
// recorded as a child of sc's span, so merged traces attach steal and
// speculation events to the dispatch that caused them.
func (t *Tracer) EventCtx(sc SpanContext, stage string, attrs map[string]any) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	ev := sc
	ev.SpanID = "" // events are instants, not spans; they allocate no ID
	t.emit("event", stage, now, 0, attrs, ev, sc.SpanID)
}

func (t *Tracer) emit(kind, stage string, at time.Time, dur time.Duration, attrs map[string]any, sc SpanContext, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev := SpanEvent{
		Seq:      t.seq,
		Kind:     kind,
		Stage:    stage,
		TraceID:  sc.TraceID,
		SpanID:   sc.SpanID,
		ParentID: parent,
		JobID:    sc.JobID,
		Tenant:   sc.Tenant,
		StartUS:  at.Sub(t.start).Microseconds(),
		DurUS:    dur.Microseconds(),
		Attrs:    attrs,
	}
	if err := AppendJSONLine(t.w, ev); err != nil && t.err == nil {
		t.err = err // latch the first failure; tracing must not abort tuning
	}
}
