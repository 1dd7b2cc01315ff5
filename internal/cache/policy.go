package cache

import (
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Decision is the store's policy for one task run on one device, shared by
// fleet.TuneTask (cmd/glimpse, cmd/fleet) and glimpsed's job runner: an
// exact hit is served with zero measurements; anything else runs a
// session, warm-started from the nearest donors when the store knows some.
// The zero Decision is a cold miss without a store.
type Decision struct {
	Hit bool // an exact entry whose best lies inside the task's space

	entry      Entry      // the stored best, when Hit
	warm       *WarmStart // the donor transfer for a miss (nil: cold)
	s          *Store
	fp, device string
	task       workload.Task
	sp         *space.Space
}

// Decide consults the store for task on device inside a cache_lookup span
// (attributes task, hit and donors) under sc. A nil store decides a cold
// miss and opens no span.
func (s *Store) Decide(tr *telemetry.Tracer, sc telemetry.SpanContext, task workload.Task,
	sp *space.Space, device string) Decision {

	if s == nil {
		return Decision{}
	}
	d := Decision{s: s, fp: Fingerprint(task, sp), device: device, task: task, sp: sp}
	span, _ := tr.StartSpan(sc, telemetry.StageCacheLookup)
	defer span.End()
	e, hit := s.Get(d.fp, device)
	// A stored best outside the space (a stale or hand-edited store file)
	// is no hit: the session warm-starts like a miss.
	d.Hit = hit && e.BestConfig < sp.Size()
	donors := 0
	if d.Hit {
		d.entry = e
	} else if d.warm = s.WarmStart(d.fp, device, sp, WarmDonors); d.warm != nil {
		donors = len(d.warm.Donors)
	}
	span.SetAttr("task", task.Name())
	span.SetAttr("hit", d.Hit)
	span.SetAttr("donors", donors)
	return d
}

// HitResult is the zero-measurement result an exact hit serves.
func (d Decision) HitResult() *tuner.Result {
	return &tuner.Result{TunerName: "glimpse (cache)", TaskName: d.task.Name(),
		BestIndex: d.entry.BestConfig, BestGFLOPS: d.entry.GFLOPS, BestTimeMS: d.entry.TimeMS}
}

// Apply hands a miss's donor transfer to tn and returns the session's
// budget, shrunk by WarmBudgetFrac when tn took the warm start; a cold
// miss or a tuner that is not WarmStartable keeps b. Only a warm start
// tn takes counts as one (Stats.WarmStarts, cache_warm_start).
func (d Decision) Apply(tn tuner.Tuner, b tuner.Budget) (budget tuner.Budget, warm bool) {
	w, ok := tn.(WarmStartable)
	if d.warm == nil || !ok {
		return b, false
	}
	w.SetWarmStart(d.warm)
	d.s.mu.Lock()
	d.s.count("cache_warm_start", &d.s.stats.WarmStarts)
	d.s.mu.Unlock()
	return ShrinkBudget(b, WarmBudgetFrac), true
}

// Record writes a finished session's best back to the store; a readonly
// store counts the put as skipped. Without a store, or without a result
// worth storing, it does nothing.
func (d Decision) Record(model string, res *tuner.Result) error {
	if d.s == nil {
		return nil
	}
	e, ok := EntryFromResult(d.fp, d.device, res, d.sp)
	if !ok {
		return nil
	}
	e.Model, e.TaskIndex = model, d.task.Index
	_, err := d.s.Put(e)
	return err
}
