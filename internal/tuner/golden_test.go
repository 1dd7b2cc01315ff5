package tuner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// TestBaselineTuneGoldenSHA256 pins every baseline end to end: the JSON
// results of each tuner on one conv and one dense task at budget 96.
// AutoTVM and Chameleon search their cost model with internal/anneal, so
// a faster annealer must not move a single bit here; all five share
// Session's measured history, so neither may a change to its bookkeeping.
// The transfer tuners get their corpus from transferFrom, per task.
//
// Like TestToolkitGoldenSHA256 in internal/core, the DGP entry pretrains
// an nn feature extractor, so it depends on the CPU: under
// GODEBUG=cpu.fma=off math.Exp leaves its FMA path and the entry reads
// another SHA. That is why `make fma-off` does not run this package.
func TestBaselineTuneGoldenSHA256(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tuner func(t *testing.T, task workload.Task, sp *space.Space) Tuner
		want  string
	}{
		{"autotvm", func(*testing.T, workload.Task, *space.Space) Tuner { return AutoTVM{} },
			"b1770f4d4f297101ca9786693e6c5ac01cfd09a3e03dd6e2c156c8b7fa876135"},
		{"chameleon", func(*testing.T, workload.Task, *space.Space) Tuner { return Chameleon{} },
			"286b408d9f78fdaf1afb49dd46d68cf07f8971bf61a8f3d72a9c9f2b23fb27c9"},
		{"random", func(*testing.T, workload.Task, *space.Space) Tuner { return Random{} },
			"8a69a9dc55a3d0e2fc6b6f296342256f2777cb8101a527db8d6f504508526c9e"},
		{"autotvm-tl", func(t *testing.T, task workload.Task, sp *space.Space) Tuner {
			return AutoTVM{Transfer: transferFrom(t, task, sp, "rtx-2080", 120, 11)}
		}, "b83875c1775b8dc7eb8a728352197f0ce50e849b08017ec3580bfca2da4a4567"},
		{"dgp", func(t *testing.T, task workload.Task, sp *space.Space) Tuner {
			return DGP{Source: transferFrom(t, task, sp, "gtx-1080", 150, 9), PretrainEpochs: 60}
		}, "257d673e5880a2711b964ebb52033b711e29ebd9faad3fb6e3566bd8e22f9faf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			enc := json.NewEncoder(h)
			for _, l := range []int{7, 17} { // resnet-18 conv2d and dense
				task, err := workload.TaskByIndex(workload.ResNet18, l)
				if err != nil {
					t.Fatal(err)
				}
				sp := space.MustForTask(task)
				res, err := tc.tuner(t, task, sp).Tune(task, sp, measure.MustNewLocal(hwspec.RTX3090),
					Budget{MaxMeasurements: 96}, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("Tune SHA-256 = %s want %s", got, tc.want)
			}
		})
	}
}
