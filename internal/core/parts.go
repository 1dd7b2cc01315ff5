package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// parts memoizes the toolkit parts this process has trained, each keyed
// by exactly the inputs that determine it, so that toolkits which share a
// part train it once. The 16 leave-target-out toolkits of the registry
// share one embedding and five acquisition pools, and a training GPU's
// prior targets do not depend on the target at all. A part is a pure
// function of its key, so a toolkit assembled from the memo is byte for
// byte the one TrainToolkit would train from scratch.
//
// The memo is never evicted: it is bounded by the registry for one
// toolkit seed, and grows with every new seed a caller trains from.
var parts struct {
	emb   memo[embKey, *blueprint.Embedding]
	prior memo[priorKey, [][]float64]
	acq   memo[acqKey, *acq.Neural]
}

// embKey determines a Blueprint embedding: the registry it is fitted on
// (hwspec.Register can grow it at run time) and its dimension.
type embKey struct {
	registry [sha256.Size]byte
	dim      int
}

// priorKey determines one training GPU's prior targets: the GPU, the
// task list, the defaulted dataset config and the dataset stream's seed.
type priorKey struct {
	gpu   hwspec.Spec
	tasks [sha256.Size]byte
	cfg   prior.DatasetConfig
	seed  int64
}

// acqKey determines a meta-trained acquisition function: the meta pool,
// the meta tasks, the defaulted config, the embedding and the "meta"
// stream's seed.
type acqKey struct {
	pool, tasks [sha256.Size]byte
	cfg         acq.MetaConfig
	emb         embKey
	seed        int64
}

// digest hashes v's Go-syntax rendering, which spells out every field
// and prints floats exactly, so equal digests mean equal inputs.
func digest(v any) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%#v", v)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// embedding returns the Blueprint embedding of the current registry.
func embedding(dim int) (*blueprint.Embedding, embKey, error) {
	registry := hwspec.Registry()
	k := embKey{digest(registry), dim}
	emb, err := parts.emb.get(k, func() (*blueprint.Embedding, error) {
		return blueprint.Build(registry, dim)
	})
	return emb, k, err
}

// trainPrior is prior.Train with each training GPU's targets taken from
// the memo. Only the heads, which depend on the whole pool, train anew.
func trainPrior(emb *blueprint.Embedding, pool []hwspec.Spec, tasks []workload.Task,
	cfg prior.TrainConfig, g *rng.RNG) (*prior.Model, error) {

	dg := g.Split("dataset")
	dcfg := cfg.Dataset.WithDefaults()
	tasksKey := digest(tasks)
	examples, err := prior.Examples(pool, emb, tasks, func(spec hwspec.Spec) ([][]float64, error) {
		return parts.prior.get(priorKey{spec, tasksKey, dcfg, dg.Seed()}, func() ([][]float64, error) {
			return prior.GPUTargets(spec, tasks, dcfg, dg)
		})
	})
	if err != nil {
		return nil, err
	}
	return prior.TrainHeads(emb, examples, cfg, g)
}

// metaTrain is acq.MetaTrain through the memo.
func metaTrain(emb *blueprint.Embedding, ek embKey, pool []hwspec.Spec, tasks []workload.Task,
	cfg acq.MetaConfig, g *rng.RNG) (*acq.Neural, error) {

	cfg = cfg.WithDefaults()
	k := acqKey{digest(pool), digest(tasks), cfg, ek, g.Seed()}
	return parts.acq.get(k, func() (*acq.Neural, error) {
		return acq.MetaTrain(emb, pool, tasks, cfg, g)
	})
}

// memo is a singleflight map from keys to computed values. The first
// request for a key computes its value; concurrent requests for the key
// wait on that one computation, and later ones get the stored result,
// error included.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// errPartPanicked is what later requests for a key get after its
// computation panicked.
var errPartPanicked = errors.New("core: training a toolkit part panicked")

// get returns k's value, running compute on the first request for k.
// The lock is held only to find or create k's entry; compute runs in the
// entry's once, so requests for other keys never wait on it.
func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if !ok {
		if m.entries == nil {
			m.entries = map[K]*memoEntry[V]{}
		}
		e = &memoEntry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.err = errPartPanicked
		e.v, e.err = compute()
	})
	return e.v, e.err
}
