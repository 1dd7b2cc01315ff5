package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// goldenTuneSHA256 pins Glimpse.Tune end to end — every measured index in
// order plus the JSON result — for one conv and one dense task at budget
// 96 on the reduced toolkit. It guards the annealer's energy path (GP
// posterior, feature decoding, prior scorer, chain stepping): a faster
// implementation of any of them must not move a single bit.
const goldenTuneSHA256 = "751f33d15b453f53eb590f3d4e35c54731bd82011d8a15c85b916c2271cae6b1"

// indexRecorder logs every index a tuner measures, in order.
type indexRecorder struct {
	measure.Measurer
	idxs []int64
}

func (r *indexRecorder) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	r.idxs = append(r.idxs, idxs...)
	return r.Measurer.MeasureBatch(task, sp, idxs)
}

func TestTuneGoldenSHA256(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs tuning sessions")
	}
	tk, err := TrainToolkit(hwspec.RTX3090, reducedToolkitConfig(t), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gl := tk.Tuner()
			gl.Workers = workers
			if got := tuneSHA256(t, gl); got != goldenTuneSHA256 {
				t.Fatalf("Tune SHA-256 = %s want %s", got, goldenTuneSHA256)
			}
		})
	}
}

func tuneSHA256(t *testing.T, gl *Glimpse) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, l := range []int{7, 17} { // resnet-18 conv2d and dense
		task, err := workload.TaskByIndex(workload.ResNet18, l)
		if err != nil {
			t.Fatal(err)
		}
		rec := &indexRecorder{Measurer: measure.MustNewLocal(hwspec.RTX3090)}
		res, err := gl.Tune(task, space.MustForTask(task), rec,
			tuner.Budget{MaxMeasurements: 96}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(rec.idxs); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
