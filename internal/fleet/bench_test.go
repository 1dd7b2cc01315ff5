package fleet

import (
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// The fleet benchmark runs the scheduler on the scenario the paper
// prices: every resnet-18 task on every registry GPU over 200 simulated
// endpoints, 10% of which flap with multi-hundred-millisecond outages.
// The one-shard entry turns sharding, task stealing and speculation off;
// the sharded entry turns them on. Both reroute failed chunks and spread
// each batch over the idle endpoints, so the sharded entry measured
// 0.97-1.21x the one-shard meas/s (median 1.06x) in ten runs on a
// 2-vCPU VM. Compare the meas/s metric between the two entries in
// BENCH_fleet.json.
const benchEndpoints = 200

// benchScenario flaps 10% of the endpoints: a flapping device serves a
// few batches, drops offline for 120ms, and repeats. Outages are
// call-triggered so every pinned session that keeps using a flapping
// endpoint is guaranteed to hit them mid-run, exactly like a board that
// wedges under sustained load.
func benchScenario() faults.Scenario {
	sc := faults.Healthy(benchEndpoints, 500*time.Microsecond)
	sc.Name = "bench-flap"
	g := rng.New(9)
	for _, i := range g.Perm(benchEndpoints)[:benchEndpoints/10] {
		sc.Configs[i].Phases = []faults.Phase{
			{Calls: 1 + i%3},
			{For: 160 * time.Millisecond, Down: true},
		}
	}
	return sc
}

func benchConfig(b *testing.B) Config {
	tasks, err := workload.Tasks(workload.ResNet18)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Model:    workload.ResNet18,
		Tasks:    tasks,
		Budget:   tuner.Budget{MaxMeasurements: 64},
		NewTuner: randomTunerFactory,
	}
}

func runFleetBench(b *testing.B, sc SchedulerConfig) {
	cfg := benchConfig(b)
	targets := append([]string(nil), hwspec.Targets...)
	names := endpointNames(benchEndpoints)
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps, _ := chaosEndpoints(names, benchScenario()) // fresh churn state per iteration
		s, err := NewScheduler(sc, eps)
		if err != nil {
			b.Fatal(err)
		}
		plans, err := s.Run(cfg, targets, rng.New(97))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range plans {
			total += p.Measurements
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(total)/sec, "meas/s")
	}
}

// BenchmarkFleetOneShard runs the sharded entry's 16 concurrent sessions
// in one shard with task stealing and speculation off: every endpoint is
// home to the one shard, so failed chunks still reroute, but stragglers
// are waited out.
func BenchmarkFleetOneShard(b *testing.B) {
	runFleetBench(b, SchedulerConfig{
		Shards:           1,
		SessionsPerShard: 16,
		Reliable: measure.ReliableConfig{
			MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond, Seed: 1,
		},
	})
}

// BenchmarkFleetSharded runs the full resilience stack: Blueprint-affinity
// shards, endpoint stealing, idle-spread chunks, and speculative re-issue
// of stragglers.
func BenchmarkFleetSharded(b *testing.B) {
	runFleetBench(b, SchedulerConfig{
		Shards:           4,
		SessionsPerShard: 4,
		Steal:            true,
		Speculate:        true,
		Reliable: measure.ReliableConfig{
			MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond, Seed: 1,
		},
	})
}
