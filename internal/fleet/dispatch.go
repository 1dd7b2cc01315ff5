package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// dispatcher is the measure.Measurer handed to one tuning session. Each
// MeasureBatch call spreads the batch over the endpoints idle at the time
// in chunks, leasing endpoints (preferring the unit's home shard,
// borrowing across shards when stealing is on), re-queues chunks that
// failed, and speculatively re-issues stragglers. Results are reassembled
// by index, so the tuner sees exactly the batch it asked for no matter
// which endpoints served it.
type dispatcher struct {
	s      *Scheduler
	shard  int
	gpu    string
	task   string
	tracer *telemetry.Tracer
	// trace parents dispatch spans (and, through them, the remote
	// endpoints' rpc_measure spans) into the caller's trace. Set via
	// BindTrace from the session goroutine that also calls MeasureBatch,
	// so no locking is needed.
	trace telemetry.SpanContext
}

// BindTrace implements measure.TraceBinder: the tuning session rebinds
// the dispatcher before each measured batch so dispatch and RPC spans
// parent under the current step.
func (d *dispatcher) BindTrace(sc telemetry.SpanContext) { d.trace = sc }

func (s *Scheduler) dispatcher(u unit, tracer *telemetry.Tracer) *dispatcher {
	return &dispatcher{s: s, shard: u.shard, gpu: u.gpu, task: u.task.Name(), tracer: tracer}
}

func (d *dispatcher) DeviceName() string { return d.gpu }

// chunk is one slice of the batch. Bookkeeping fields are touched only by
// the dispatch event loop, never by attempt goroutines.
type chunk struct {
	lo, hi   int
	done     bool
	inFlight int
	twinned  bool      // a speculative twin was issued for this flight
	started  time.Time // start of the earliest outstanding attempt
	holders  []*slot   // endpoints currently attempting this chunk
	cancels  []context.CancelFunc
	lastFail *slot // endpoint whose attempt most recently failed this chunk
}

// attemptDone is the event an attempt goroutine reports to the loop.
type attemptDone struct {
	ck   *chunk
	sl   *slot
	res  []gpusim.Result
	err  error
	wall time.Duration
	twin bool
}

// lease picks an endpoint for the gpu: idle, breaker-ready, hosting the
// target, not in exclude. Home-shard endpoints are preferred; with
// stealing enabled, other shards' (and homeless) endpoints are borrowed.
// Within a class the least-served endpoint wins, ties by name, so load
// spreads deterministically. Beside the endpoint and whether it was
// borrowed, it returns how many endpoints were leasable, the leased one
// included; nil when nothing is leasable now. One pass over the pool,
// allocation-free.
func (d *dispatcher) lease(exclude []*slot) (*slot, bool, int) {
	for {
		var best [2]*slot // per class: home, borrowed
		var bestServed [2]int
		idle := 0
	scan:
		for _, sl := range d.s.slots {
			class := 0
			if sl.home != d.shard {
				if !d.s.sc.Steal {
					continue
				}
				class = 1
			}
			if !sl.ep.HostsGPU(d.gpu) {
				continue
			}
			for _, e := range exclude {
				if e == sl {
					continue scan
				}
			}
			served, ok := sl.leasable(d.gpu)
			if !ok {
				continue
			}
			idle++
			if b := best[class]; b == nil || served < bestServed[class] ||
				served == bestServed[class] && sl.ep.Name < b.ep.Name {
				best[class], bestServed[class] = sl, served
			}
		}
		sl, stolen := best[0], false
		if sl == nil {
			sl, stolen = best[1], true
		}
		if sl == nil {
			return nil, false, 0
		}
		if sl.tryAcquire() {
			return sl, stolen, idle
		}
		// Another session took it after the scan read it idle: rescan.
	}
}

// speculateAfter is the straggler threshold for a chunk of n indices:
// the configured constant, or 4x the endpoint's expected chunk wall time
// (floor 1ms) when adapting.
func (d *dispatcher) speculateAfter(sl *slot, n int) time.Duration {
	if d.s.sc.SpeculateAfter > 0 {
		return d.s.sc.SpeculateAfter
	}
	th := time.Duration(4 * sl.ewma() * float64(n) * float64(time.Second))
	if th < time.Millisecond {
		th = time.Millisecond
	}
	return th
}

// launch starts one attempt goroutine for ck on sl. The goroutine owns
// the slot's busy token and releases it when the call returns; its
// result lands on the buffered events channel (sized so an attempt still
// in flight when the batch returns never blocks).
func (d *dispatcher) launch(ck *chunk, sl *slot, twin bool, sc telemetry.SpanContext,
	task workload.Task, sp *space.Space, idxs []int64, events chan<- attemptDone) {
	//glint:ignore ctxflow -- attempt-scoped root: the ctx-less Measurer API ends here and every attempt is cancelled via ck.cancels on abort/finish
	actx, cancel := context.WithCancel(context.Background())
	ck.inFlight++
	ck.holders = append(ck.holders, sl)
	ck.cancels = append(ck.cancels, cancel)
	if ck.inFlight == 1 {
		ck.started = time.Now()
	}
	//glint:ignore leakcheck -- the attempt finishes by sending on events, buffered past max in-flight, so the send (and exit) cannot block
	go func() {
		start := time.Now()
		conn, err := sl.conn(d.gpu, d.s.sc.Reliable)
		var res []gpusim.Result
		if err == nil {
			// The busy token makes this attempt the conn's sole user, so
			// binding the dispatch span context here cannot race another
			// attempt's bind or call.
			measure.BindTrace(conn, sc)
			res, err = conn.MeasureBatchContext(actx, task, sp, idxs[ck.lo:ck.hi])
		}
		wall := time.Since(start)
		// Free the endpoint before reporting, so the loop never sees an
		// attempt done while its endpoint still reads busy.
		sl.release()
		d.s.notifyRelease()
		//glint:ignore ctxflow -- events is buffered past max in-flight (see MeasureBatch), so this send never blocks
		events <- attemptDone{ck: ck, sl: sl, res: res, err: err, wall: wall, twin: twin}
	}()
}

// MeasureBatch runs the chunked event loop. Chunks are cut lazily at
// lease time: each takes an even share of the configs still uncut over
// the endpoints leasable at that moment (at most MaxChunk), so an idle
// pool measures a batch in parallel and a busy one in fewer, larger
// chunks. It returns once every chunk has a result; cancelled attempts
// still in flight report into the events buffer and exit on their own.
func (d *dispatcher) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	dsp, dsc := d.tracer.StartSpan(d.trace, telemetry.StageDispatch)
	dsp.SetAttr("gpu", d.gpu)
	dsp.SetAttr("task", d.task)
	dsp.SetAttr("batch", len(idxs))
	defer dsp.End()

	out := make([]gpusim.Result, len(idxs))
	// Buffered for every attempt that can be unreceived at once, so an
	// attempt finishing after the loop returned can still send and exit.
	// A chunk holds at least one index and has at most two attempts in
	// flight: its original plus one speculative twin (a twin launches
	// only at inFlight == 1, a retry only at inFlight == 0). Busy tokens
	// bound nothing here: an attempt releases its token before it sends,
	// so its endpoint can take another attempt before the loop receives.
	events := make(chan attemptDone, 2*len(idxs))
	// One ticker per batch polls what no event announces: breaker
	// cooldowns, the speculation threshold and LeaseTimeout. A tick that
	// lands while the loop is busy costs one extra pass.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()

	var (
		chunks                                    []*chunk
		retry                                     []*chunk
		cursor                                    int
		doneCount                                 int
		consecFail                                int
		nChunks, nRetries, nSteals, nTwins, nWins int
		lastErr                                   error
		lastLaunch                                = time.Now()
	)
	abort := func(err error) ([]gpusim.Result, error) {
		for _, ck := range chunks {
			for _, cancel := range ck.cancels {
				cancel()
			}
		}
		dsp.SetAttr("outcome", "failed")
		return nil, err
	}
	finish := func() {
		dsp.SetAttr("chunks", nChunks)
		dsp.SetAttr("retries", nRetries)
		if nTwins > 0 {
			dsp.SetAttr("twins", nTwins)
		}
	}
	record := func(steals, twins, wins int) {
		d.s.mu.Lock()
		d.s.stats.Chunks += nChunks
		d.s.stats.ChunkRetries += nRetries
		d.s.stats.EndpointSteals += steals
		d.s.stats.Speculations += twins
		d.s.stats.SpeculativeWins += wins
		d.s.mu.Unlock()
	}
	defer func() { record(nSteals, nTwins, nWins); finish() }()

	launchOne := func() bool {
		// Retry queue first: failed chunks block batch completion.
		if len(retry) > 0 {
			ck := retry[0]
			sl, stolen, _ := d.lease([]*slot{ck.lastFail})
			if sl == nil {
				sl, stolen, _ = d.lease(nil) // last resort: retry the failed endpoint
			}
			if sl == nil {
				return false
			}
			retry = retry[1:]
			if stolen {
				nSteals++
				d.tracer.EventCtx(dsc, telemetry.StageSteal, map[string]any{
					"event": "endpoint_steal", "shard": d.shard, "endpoint": sl.ep.Name, "gpu": d.gpu,
				})
			}
			d.launch(ck, sl, false, dsc, task, sp, idxs, events)
			return true
		}
		// Fresh work: cut an even share of the rest over the idle pool.
		if cursor < len(idxs) {
			sl, stolen, idle := d.lease(nil)
			if sl == nil {
				return false
			}
			n := min((len(idxs)-cursor+idle-1)/idle, d.s.sc.MaxChunk)
			ck := &chunk{lo: cursor, hi: cursor + n}
			cursor += n
			chunks = append(chunks, ck)
			nChunks++
			if stolen {
				nSteals++
				d.tracer.EventCtx(dsc, telemetry.StageSteal, map[string]any{
					"event": "endpoint_steal", "shard": d.shard, "endpoint": sl.ep.Name, "gpu": d.gpu,
				})
			}
			d.launch(ck, sl, false, dsc, task, sp, idxs, events)
			return true
		}
		// Speculation: twin the oldest straggler onto a different endpoint.
		if !d.s.sc.Speculate {
			return false
		}
		var cand *chunk
		for _, ck := range chunks {
			if ck.done || ck.inFlight != 1 || ck.twinned {
				continue
			}
			if time.Since(ck.started) < d.speculateAfter(ck.holders[0], ck.hi-ck.lo) {
				continue
			}
			if cand == nil || ck.started.Before(cand.started) {
				cand = ck
			}
		}
		if cand == nil {
			return false
		}
		sl, stolen, _ := d.lease(cand.holders)
		if sl == nil {
			return false
		}
		cand.twinned = true
		nTwins++
		if stolen {
			nSteals++
		}
		d.tracer.EventCtx(dsc, telemetry.StageSpeculate, map[string]any{
			"event": "speculate", "gpu": d.gpu, "task": d.task,
			"endpoint": sl.ep.Name, "straggler": cand.holders[0].ep.Name,
			"chunk": fmt.Sprintf("%d:%d", cand.lo, cand.hi),
		})
		d.launch(cand, sl, true, dsc, task, sp, idxs, events)
		return true
	}

	inFlight := 0
	for doneCount < len(idxs) {
		launched := false
		for launchOne() {
			launched = true
			inFlight++
		}
		if launched {
			lastLaunch = time.Now()
		} else if inFlight == 0 {
			// Nothing running and nothing leasable: every suitable
			// endpoint is tripped or owned elsewhere. Give breakers and
			// other sessions LeaseTimeout to free something up.
			if time.Since(lastLaunch) > d.s.sc.LeaseTimeout {
				if lastErr == nil {
					lastErr = fmt.Errorf("fleet: no usable endpoint for %s", d.gpu)
				}
				return abort(fmt.Errorf("fleet: %s/%s: endpoints exhausted: %w", d.gpu, d.task, lastErr))
			}
		}
		wait := d.s.releaseWait()
		select {
		case ev := <-events:
			inFlight--
			d.removeAttempt(ev.ck, ev.sl)
			if ev.err != nil {
				lastErr = ev.err
				ev.ck.lastFail = ev.sl
				if !ev.ck.done {
					consecFail++
					if consecFail > 8*len(d.s.slots)+32 {
						return abort(fmt.Errorf("fleet: %s/%s: measurement failing persistently: %w", d.gpu, d.task, lastErr))
					}
					if ev.ck.inFlight == 0 {
						retry = append(retry, ev.ck)
						nRetries++
					}
				}
				continue
			}
			ev.sl.observe(ev.ck.hi-ev.ck.lo, ev.wall)
			consecFail = 0
			if ev.ck.done {
				continue // twin lost the race; result already recorded
			}
			ev.ck.done = true
			doneCount += ev.ck.hi - ev.ck.lo
			copy(out[ev.ck.lo:ev.ck.hi], ev.res)
			if ev.twin {
				nWins++
				d.tracer.EventCtx(dsc, telemetry.StageSpeculate, map[string]any{
					"event": "speculative_win", "gpu": d.gpu, "endpoint": ev.sl.ep.Name,
				})
			}
			for _, cancel := range ev.ck.cancels {
				cancel() // first result wins; abort the sibling attempt
			}
		case <-wait:
		case <-tick.C:
		}
	}
	return out, nil
}

// removeAttempt drops sl from ck's holder bookkeeping after its attempt
// reported (loop-only state, no locking needed).
func (d *dispatcher) removeAttempt(ck *chunk, sl *slot) {
	ck.inFlight--
	for i, h := range ck.holders {
		if h == sl {
			ck.holders = append(ck.holders[:i], ck.holders[i+1:]...)
			ck.cancels[i]() // attempt finished; release its context
			ck.cancels = append(ck.cancels[:i], ck.cancels[i+1:]...)
			break
		}
	}
	if ck.inFlight == 1 {
		ck.started = time.Now() // remaining attempt's age restarts the clock
	}
}
