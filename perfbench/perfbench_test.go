package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/server"
)

// tinyToolkit trains in well under a second; the reduced runs only need
// a toolkit, not a good one.
var tinyToolkit = core.ToolkitConfig{
	MetaGPUs: 1,
	Prior:    prior.TrainConfig{Epochs: 2, Hidden: 8},
	Meta:     acq.MetaConfig{Epochs: 2, Steps: 2, Hidden: 8},
}

// tinyToolkits is a training provider with the tiny config, standing in
// for NewTrainingToolkits("") in the reduced serve_cold.
type tinyToolkits struct{}

func (tinyToolkits) Toolkit(gpu string, seed int64) (*core.Toolkit, error) {
	return core.TrainToolkit(gpu, tinyToolkit, rng.New(seed).Split("toolkit"))
}

func reducedSizes() sizes {
	return sizes{
		warmGPUs: 2, warmTasks: 3, warmBudget: 32, warmToolkit: tinyToolkit,
		coldGPUs: 2, coldBudget: 16,
		coldToolkits: func() server.ToolkitProvider { return tinyToolkits{} },
		partsPrior:   tinyToolkit.Prior, partsMeta: tinyToolkit.Meta,
		fleetTasks: 2, fleetBudget: 16, fleetEndpoints: 20,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestReducedRuns runs every workload of BENCHMARK.json at a reduced
// size, untraced and traced, twice with one seed: every run must pass its
// output checks, emit exactly the named metrics with their units, and
// give the same results as its twin.
func TestReducedRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var digests []string
			for i := 0; i < 2; i++ {
				o := &options{workload: w.Name, seed: 5, seconds: 0.3, trace: traced,
					dir: t.TempDir(), log: io.Discard, size: reducedSizes()}
				res, err := run(o)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
						w.Name, traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.Name, traced, name, m, unit)
					}
				}
				digests = append(digests, res.digest)
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("%s traced=%v: results differ between runs with one seed: %s vs %s",
					w.Name, traced, digests[0], digests[1])
			}
		}
	}
}
