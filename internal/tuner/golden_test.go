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

// TestBaselineTuneGoldenSHA256 pins the two annealing baselines end to
// end: the JSON results of AutoTVM and Chameleon on one conv and one
// dense task at budget 96. Both search their cost model with
// internal/anneal, so a faster annealer must not move a single bit here.
func TestBaselineTuneGoldenSHA256(t *testing.T) {
	for _, tc := range []struct {
		tuner Tuner
		want  string
	}{
		{AutoTVM{}, "b1770f4d4f297101ca9786693e6c5ac01cfd09a3e03dd6e2c156c8b7fa876135"},
		{Chameleon{}, "286b408d9f78fdaf1afb49dd46d68cf07f8971bf61a8f3d72a9c9f2b23fb27c9"},
	} {
		t.Run(tc.tuner.Name(), func(t *testing.T) {
			h := sha256.New()
			enc := json.NewEncoder(h)
			for _, l := range []int{7, 17} { // resnet-18 conv2d and dense
				task, err := workload.TaskByIndex(workload.ResNet18, l)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tc.tuner.Tune(task, space.MustForTask(task), measure.MustNewLocal(hwspec.RTX3090),
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
