package core

import (
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/anneal"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// energyReplay is one recorded tuning step: the annealer energy of its
// fitted GP, every index batch its annealer scored, in order, and the
// annealer's problem and config.
var energyReplay struct {
	once    sync.Once
	energy  func(idx []int64, out []float64)
	batches [][]int64
	problem anneal.Problem
	cfg     anneal.Config
	topK    int
	err     error
}

// recordEnergyStep tunes resnet-18 L7 on the reduced toolkit for five
// steps (80 measurements of a budget-96 run), fits the sixth step's GP,
// and records the index stream of that step's annealer.
func recordEnergyStep(b *testing.B) {
	b.Helper()
	r := &energyReplay
	r.once.Do(func() {
		tk, err := TrainToolkit(hwspec.RTX3090, reducedToolkitConfig(b), rng.New(1))
		if err != nil {
			r.err = err
			return
		}
		task, err := workload.TaskByIndex(workload.ResNet18, 7)
		if err != nil {
			r.err = err
			return
		}
		sp := space.MustForTask(task)
		ts, err := tk.Tuner().NewTuneSession(task, sp, measure.MustNewLocal(hwspec.RTX3090),
			tuner.Budget{MaxMeasurements: 96}, rng.New(5))
		if err != nil {
			r.err = err
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := ts.Step(); err != nil {
				r.err = err
				return
			}
		}
		sur, _, err := ts.surrogate(telemetry.SpanContext{})
		if err != nil {
			r.err = err
			return
		}
		r.energy = ts.energy(sur, 0.2)
		r.cfg = anneal.DefaultConfig()
		r.cfg.Workers = 1
		r.cfg.InitialSeed = topMeasured(ts.s.Values(), ts.s.Indices(), 3)
		r.problem = anneal.Problem{Size: sp.Size(), Score: r.energy, Neighbor: sp.Neighbor}
		r.topK = poolPerBatch * ts.batch
		record := r.problem
		record.Score = func(idx []int64, out []float64) {
			r.batches = append(r.batches, append([]int64(nil), idx...))
			r.energy(idx, out)
		}
		_, r.err = anneal.Run(record, r.cfg, r.topK, rng.New(6))
	})
	if r.err != nil {
		b.Fatal(r.err)
	}
}

// BenchmarkAnnealEnergy replays one recorded step's annealer index stream
// through the batch energy on one goroutine: the GP posterior, feature
// decoding and prior scoring of a whole step, without the chain logic.
// One op is one step's energy; it must allocate nothing.
func BenchmarkAnnealEnergy(b *testing.B) {
	recordEnergyStep(b)
	r := &energyReplay
	var out [anneal.GroupSize]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range r.batches {
			r.energy(idx, out[:len(idx)])
		}
	}
}

// BenchmarkAnnealRun runs that step's whole annealer on one goroutine:
// the energy of BenchmarkAnnealEnergy plus chain stepping, neighbour
// proposals, the score memo and the top-K ranking. One op is one
// package-level Run, which allocates a fresh workspace (memo and chain
// RNGs) per call. No tuner takes that path any more, since each anneals
// in its tuner.Session's Scratch; this bench prices what the reuse saves.
func BenchmarkAnnealRun(b *testing.B) {
	recordEnergyStep(b)
	r := &energyReplay
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anneal.Run(r.problem, r.cfg, r.topK, rng.New(6)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealScratchRun is BenchmarkAnnealRun in one anneal.Scratch
// reused across ops, as every tuner's tuner.Session reuses it across
// rounds.
func BenchmarkAnnealScratchRun(b *testing.B) {
	recordEnergyStep(b)
	r := &energyReplay
	var ws anneal.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Run(r.problem, r.cfg, r.topK, rng.New(6)); err != nil {
			b.Fatal(err)
		}
	}
}
