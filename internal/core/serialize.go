package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// toolkitJSON is the on-disk form of a trained toolkit.
type toolkitJSON struct {
	Version    int                  `json:"version"`
	TargetName string               `json:"target"`
	Emb        *blueprint.Embedding `json:"embedding"`
	Prior      *prior.Model         `json:"prior"`
	Acq        *acq.Neural          `json:"acquisition"`
}

// toolkitVersion guards against stale artifact files.
const toolkitVersion = 1

// Save writes the trained toolkit to path as JSON, so the expensive
// offline training runs once per target GPU and tuning sessions just load
// the artifacts.
func (tk *Toolkit) Save(path string) error {
	data, err := json.Marshal(toolkitJSON{
		Version:    toolkitVersion,
		TargetName: tk.TargetName,
		Emb:        tk.Emb,
		Prior:      tk.Prior,
		Acq:        tk.Acq,
	})
	if err != nil {
		return fmt.Errorf("core: serialize toolkit: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadToolkit restores a toolkit saved by Save, validating the target GPU
// still exists in the registry.
func LoadToolkit(path string) (*Toolkit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v toolkitJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("core: parse toolkit %s: %w", path, err)
	}
	if v.Version != toolkitVersion {
		return nil, fmt.Errorf("core: toolkit %s has version %d, want %d", path, v.Version, toolkitVersion)
	}
	if v.Emb == nil || v.Prior == nil || v.Acq == nil {
		return nil, fmt.Errorf("core: toolkit %s missing artifacts", path)
	}
	if _, err := hwspec.ByName(v.TargetName); err != nil {
		return nil, err
	}
	// The prior references the same embedding instance after a round trip.
	v.Prior.Emb = v.Emb
	return &Toolkit{TargetName: v.TargetName, Emb: v.Emb, Prior: v.Prior, Acq: v.Acq}, nil
}

// LoadOrTrainToolkit returns the toolkit saved at path when it was trained
// for gpu. Otherwise it trains one leave-target-out with the default
// config from g and saves it to path, creating path's directory. An empty
// path trains without saving.
func LoadOrTrainToolkit(path, gpu string, g *rng.RNG) (*Toolkit, error) {
	if path != "" {
		if tk, err := LoadToolkit(path); err == nil && tk.TargetName == gpu {
			return tk, nil
		}
	}
	tk, err := TrainToolkit(gpu, ToolkitConfig{}, g)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := tk.Save(path); err != nil {
			return nil, err
		}
	}
	return tk, nil
}
