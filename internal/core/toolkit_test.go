package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// goldenToolkitSHA256 is the SHA-256 of the saved toolkit that
// reducedToolkitConfig trains for rtx-3090 from seed 1. It was recorded
// with the original Mul/T()-based nn kernels and serial prior → meta
// training; the fixed-order kernels and concurrent training must
// reproduce it byte for byte at every worker count.
const goldenToolkitSHA256 = "589fe0b840de7275fb9896550e3eb1b1af7267d89f2007f3ecb9253fef1806e7"

// reducedToolkitConfig is a toolkit small enough to train in a few
// seconds that still covers every head kind H has (conv, dense, pool
// tasks), the acquisition net, and batches that are not a multiple of
// the batch size.
func reducedToolkitConfig(t testing.TB) ToolkitConfig {
	t.Helper()
	var tasks []workload.Task
	for _, ref := range []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 4}, {workload.ResNet18, 7}, {workload.ResNet18, 13},
		{workload.AlexNet, 2}, {workload.AlexNet, 8}, {workload.AlexNet, 11},
		{workload.VGG16, 8},
	} {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	return ToolkitConfig{
		TrainGPUs:  []string{"gtx-1080", "rtx-2070", "rtx-2080-ti", "titan-rtx", "rtx-3080"},
		PriorTasks: tasks,
		Prior: prior.TrainConfig{
			Dataset: prior.DatasetConfig{SamplesPerTask: 60, TopK: 8},
			Epochs:  40,
			Hidden:  24,
		},
		MetaGPUs: 2,
		Meta:     acq.MetaConfig{Steps: 3, Batch: 4, Pool: 20, Epochs: 20, Hidden: 16},
	}
}

// toolkitSHA256 trains the reduced toolkit at the given worker count and
// hashes its saved artifact.
func toolkitSHA256(t testing.TB, workers int) string {
	t.Helper()
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(prev)
	tk, err := TrainToolkit(hwspec.RTX3090, reducedToolkitConfig(t), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "toolkit.json")
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestToolkitGoldenSHA256 pins the trained toolkit artifact byte for byte,
// serial and concurrent.
func TestToolkitGoldenSHA256(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if got := toolkitSHA256(t, workers); got != goldenToolkitSHA256 {
				t.Fatalf("toolkit SHA-256 = %s want %s", got, goldenToolkitSHA256)
			}
		})
	}
}

// BenchmarkTrainToolkit times a whole reduced-config TrainToolkit: the
// Blueprint build, H's dataset and heads, and acquisition meta-training.
func BenchmarkTrainToolkit(b *testing.B) {
	cfg := reducedToolkitConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainToolkit(hwspec.RTX3090, cfg, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}
