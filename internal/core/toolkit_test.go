package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// resetToolkitParts empties the toolkit-parts memo, so the next
// TrainToolkit trains every part from scratch.
func resetToolkitParts() {
	parts.emb.reset()
	parts.prior.reset()
	parts.acq.reset()
}

// reset drops every entry.
func (m *memo[K, V]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = nil
}

// computed reports how many keys the memo holds, which is how many
// computations it ran: get computes each entry once, when it creates it.
func (m *memo[K, V]) computed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// toolkitBytes returns the artifact Save writes for tk.
func toolkitBytes(t testing.TB, tk *Toolkit) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "toolkit.json")
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// toolkitSHA256 trains the reduced toolkit at the given worker count,
// every part from scratch, and hashes its saved artifact.
func toolkitSHA256(t testing.TB, workers int) string {
	t.Helper()
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(prev)
	resetToolkitParts()
	tk, err := TrainToolkit(hwspec.RTX3090, reducedToolkitConfig(t), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(toolkitBytes(t, tk))
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

// sharedPoolToolkitConfig is reducedToolkitConfig on the default
// leave-target-out pools, so that rtx-2080-ti and rtx-3090 share their
// meta pool and all but one prior GPU, as default toolkits do.
func sharedPoolToolkitConfig(t testing.TB) ToolkitConfig {
	cfg := reducedToolkitConfig(t)
	cfg.TrainGPUs, cfg.MetaGPUs = nil, 0
	cfg.Prior.Dataset.SamplesPerTask = 24
	return cfg
}

// TestToolkitPartsTrainOnce trains rtx-2080-ti and then rtx-3090 in one
// process: the embedding, the acquisition function and the prior targets
// of the GPUs both pools hold train once, and each toolkit's saved bytes
// equal the toolkit trained with the memo empty.
func TestToolkitPartsTrainOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := sharedPoolToolkitConfig(t)
	targets := []string{hwspec.RTX2080Ti, hwspec.RTX3090}
	fresh := make([][]byte, len(targets))
	for i, gpu := range targets {
		resetToolkitParts()
		tk, err := TrainToolkit(gpu, cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = toolkitBytes(t, tk)
	}

	resetToolkitParts()
	for i, gpu := range targets {
		tk, err := TrainToolkit(gpu, cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(toolkitBytes(t, tk), fresh[i]) {
			t.Fatalf("%s: toolkit from the memo differs from one trained with it empty", gpu)
		}
	}
	if n := parts.acq.computed(); n != 1 {
		t.Fatalf("acquisition meta-trained %d times want 1", n)
	}
	if n := parts.emb.computed(); n != 1 {
		t.Fatalf("embedding built %d times want 1", n)
	}
	// Each pool is the registry minus its target, so the two pools hold
	// every registry GPU once between them.
	if n, want := parts.prior.computed(), len(hwspec.Registry()); n != want {
		t.Fatalf("prior targets collected for %d GPUs want %d", n, want)
	}
}

// TestToolkitPartsConcurrentTargets trains the two toolkits concurrently:
// the shared acquisition function still trains once, and both toolkits
// match the serially trained ones.
func TestToolkitPartsConcurrentTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := sharedPoolToolkitConfig(t)
	cfg.Prior.Epochs, cfg.Meta.Epochs = 5, 5
	targets := []string{hwspec.RTX2080Ti, hwspec.RTX3090}
	want := make([][]byte, len(targets))
	resetToolkitParts()
	for i, gpu := range targets {
		tk, err := TrainToolkit(gpu, cfg, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = toolkitBytes(t, tk)
	}

	resetToolkitParts()
	tks := make([]*Toolkit, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, gpu := range targets {
		wg.Add(1)
		go func(i int, gpu string) {
			defer wg.Done()
			tks[i], errs[i] = TrainToolkit(gpu, cfg, rng.New(4))
		}(i, gpu)
	}
	wg.Wait()
	for i, gpu := range targets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(toolkitBytes(t, tks[i]), want[i]) {
			t.Fatalf("%s: concurrently trained toolkit differs", gpu)
		}
	}
	if n := parts.acq.computed(); n != 1 {
		t.Fatalf("acquisition meta-trained %d times want 1", n)
	}
}

// BenchmarkTrainToolkit times a whole reduced-config TrainToolkit from
// scratch: the Blueprint build, H's dataset and heads, and acquisition
// meta-training. The parts memo is emptied before every iteration.
func BenchmarkTrainToolkit(b *testing.B) {
	cfg := reducedToolkitConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resetToolkitParts()
		if _, err := TrainToolkit(hwspec.RTX3090, cfg, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainToolkitSharedPool times an rtx-3090 toolkit trained right
// after an rtx-2080-ti one, on the default pools: the embedding, the
// acquisition function and 14 of 15 GPUs' prior targets come from the
// memo, so mostly H's heads train.
func BenchmarkTrainToolkitSharedPool(b *testing.B) {
	cfg := sharedPoolToolkitConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetToolkitParts()
		if _, err := TrainToolkit(hwspec.RTX2080Ti, cfg, rng.New(1)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := TrainToolkit(hwspec.RTX3090, cfg, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}
