package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func TestToolkitSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tk := smallToolkit(t)
	path := filepath.Join(t.TempDir(), "toolkit.json")
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadToolkit(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TargetName != tk.TargetName {
		t.Fatalf("target %q want %q", restored.TargetName, tk.TargetName)
	}

	// The restored artifacts behave identically: same Blueprint vector,
	// same prior distributions, same acquisition scores.
	spec := hwspec.MustByName(tk.TargetName)
	a, b := tk.Emb.Embed(spec), restored.Emb.Embed(spec)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("embedding differs at %d: %g vs %g", i, a[i], b[i])
		}
	}
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := tk.Prior.Distributions(task, spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := restored.Prior.Distributions(task, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Params {
		if math.Abs(d1.Params[i]-d2.Params[i]) > 1e-12 {
			t.Fatalf("prior params differ at %d", i)
		}
	}
	st := acq.Stats{Mean: 1.1, Std: 0.2, Best: 1, Progress: 0.5, PriorLogProb: -4}
	if tk.Acq.Score(st, a) != restored.Acq.Score(st, b) {
		t.Fatal("acquisition scores differ after round trip")
	}
}

// LoadOrTrainToolkit reuses a saved toolkit only for its own target. Any
// other GPU goes to training (here an unknown one, so training fails
// fast), and the saved file stays as it was.
func TestLoadOrTrainToolkitReusesOnlyMatchingTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tk := smallToolkit(t)
	path := filepath.Join(t.TempDir(), "toolkit.json")
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrTrainToolkit(path, tk.TargetName, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// A default-config toolkit trained from rng.New(1) would score
	// differently from the small one on disk.
	emb := tk.Emb.Embed(hwspec.MustByName(tk.TargetName))
	st := acq.Stats{Mean: 1.1, Std: 0.2, Best: 1, Progress: 0.5, PriorLogProb: -4}
	if got.TargetName != tk.TargetName || got.Acq.Score(st, emb) != tk.Acq.Score(st, emb) {
		t.Fatal("matching target was not served from the saved toolkit")
	}
	if _, err := LoadOrTrainToolkit(path, "gpu-x", rng.New(1)); err == nil {
		t.Fatal("toolkit for an unknown GPU accepted")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, saved) {
		t.Fatalf("saved toolkit changed by a failed training (read err %v)", err)
	}
}

func TestLoadToolkitErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadToolkit(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(bad); err == nil {
		t.Fatal("corrupt file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"version":1,"target":"titan-xp"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(empty); err == nil {
		t.Fatal("artifact-less file accepted")
	}
	wrongVer := filepath.Join(dir, "ver.json")
	if err := os.WriteFile(wrongVer, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(wrongVer); err == nil {
		t.Fatal("wrong version accepted")
	}
}
