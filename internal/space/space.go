package space

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// Config is a point in a configuration space: one local index per knob.
type Config []int

// Space is a full schedule configuration space for one task.
type Space struct {
	TaskName string
	Template string // "conv2d", "winograd_conv2d", or "dense"
	Knobs    []Knob
	size     int64
}

// newSpace finalizes a space and computes its size.
func newSpace(taskName, template string, knobs []Knob) *Space {
	s := &Space{TaskName: taskName, Template: template, Knobs: knobs, size: 1}
	for i := range knobs {
		s.size *= int64(knobs[i].Size())
	}
	return s
}

// Size returns the total number of configurations.
func (s *Space) Size() int64 { return s.size }

// NumKnobs returns the number of tunable dimensions.
func (s *Space) NumKnobs() int { return len(s.Knobs) }

// CheckIndex panics unless idx is a flat index of the space.
func (s *Space) CheckIndex(idx int64) {
	if idx < 0 || idx >= s.size {
		panic(fmt.Sprintf("space: index %d out of [0, %d)", idx, s.size))
	}
}

// FromIndex decodes a flat index into a configuration (mixed radix,
// first knob fastest).
func (s *Space) FromIndex(idx int64) Config {
	s.CheckIndex(idx)
	cfg := make(Config, len(s.Knobs))
	for i := range s.Knobs {
		n := int64(s.Knobs[i].Size())
		cfg[i] = int(idx % n)
		idx /= n
	}
	return cfg
}

// ToIndex encodes a configuration back into its flat index.
func (s *Space) ToIndex(cfg Config) int64 {
	if len(cfg) != len(s.Knobs) {
		panic(fmt.Sprintf("space: config has %d knobs, space has %d", len(cfg), len(s.Knobs)))
	}
	var idx int64
	for i := len(s.Knobs) - 1; i >= 0; i-- {
		n := s.Knobs[i].Size()
		if cfg[i] < 0 || cfg[i] >= n {
			panic(fmt.Sprintf("space: knob %q local index %d out of [0, %d)", s.Knobs[i].Name, cfg[i], n))
		}
		idx = idx*int64(n) + int64(cfg[i])
	}
	return idx
}

// RandomIndex draws a uniform configuration index.
func (s *Space) RandomIndex(g *rng.RNG) int64 { return g.Int63n(s.size) }

// Neighbor proposes a local move: one knob either steps ±1 in its local
// ordering (half the time, exploiting the smoothness of factorization
// orderings) or re-samples uniformly. It edits the knob's mixed-radix
// digit in place, so it allocates nothing.
func (s *Space) Neighbor(idx int64, g *rng.RNG) int64 {
	s.CheckIndex(idx)
	k := g.Intn(len(s.Knobs))
	n := s.Knobs[k].Size()
	if n == 1 {
		return idx
	}
	stride := int64(1)
	for i := 0; i < k; i++ {
		stride *= int64(s.Knobs[i].Size())
	}
	cur := int(idx / stride % int64(n))
	next := 0
	if g.Bool(0.5) {
		step := 1
		if g.Bool(0.5) {
			step = -1
		}
		next = (cur + step + n) % n
	} else {
		next = g.Intn(n)
	}
	return idx + int64(next-cur)*stride
}

// FeatureLen returns the featurization width of the space.
func (s *Space) FeatureLen() int {
	total := 0
	for i := range s.Knobs {
		total += s.Knobs[i].FeatureLen()
	}
	return total
}

// Features encodes a configuration for cost models: log2 split factors and
// log-scaled categorical options, in knob order.
func (s *Space) Features(cfg Config) []float64 {
	out := make([]float64, 0, s.FeatureLen())
	for i := range s.Knobs {
		out = s.Knobs[i].AppendFeatures(out, cfg[i])
	}
	return out
}

// FeaturesAt is Features(FromIndex(idx)).
func (s *Space) FeaturesAt(idx int64) []float64 {
	return s.FeaturesInto(idx, make([]float64, 0, s.FeatureLen()))
}

// FeaturesInto is FeaturesAt writing into buf's storage: it decodes the
// digits in place and returns buf[:FeatureLen()], allocating nothing when
// buf has the capacity.
func (s *Space) FeaturesInto(idx int64, buf []float64) []float64 {
	s.CheckIndex(idx)
	buf = buf[:0]
	for i := range s.Knobs {
		n := int64(s.Knobs[i].Size())
		buf = s.Knobs[i].AppendFeatures(buf, int(idx%n))
		idx /= n
	}
	return buf
}

// Describe renders a configuration human-readably, e.g. for tuning logs.
func (s *Space) Describe(cfg Config) string {
	var sb strings.Builder
	for i := range s.Knobs {
		if i > 0 {
			sb.WriteString(" ")
		}
		k := &s.Knobs[i]
		if k.Kind == KindSplit {
			fmt.Fprintf(&sb, "%s=%v", k.Name, k.SplitValue(cfg[i]))
		} else {
			fmt.Fprintf(&sb, "%s=%d", k.Name, k.CategoricalValue(cfg[i]))
		}
	}
	return sb.String()
}

// Signature digests the space's structure — template, knob names, kinds,
// factorization tables, and categorical options — into a short stable hex
// string. Two spaces share a signature exactly when a configuration index
// means the same schedule in both, which is what persistent tuned-config
// caches key on: a template change that reshapes the space must invalidate
// every stored config index.
func (s *Space) Signature() string {
	h := fnv.New64a()
	word := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(v string) {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	str(s.Template)
	word(int64(len(s.Knobs)))
	for i := range s.Knobs {
		k := &s.Knobs[i]
		str(k.Name)
		word(int64(k.Kind))
		if k.Kind == KindSplit {
			word(int64(k.Axis))
			word(int64(k.Parts))
			for _, r := range k.Roles {
				word(int64(r))
			}
			for _, f := range k.table.factors {
				word(int64(f))
			}
		} else {
			for _, opt := range k.Options {
				word(int64(opt))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// KnobByName returns a pointer to the named knob and its position.
func (s *Space) KnobByName(name string) (*Knob, int, error) {
	for i := range s.Knobs {
		if s.Knobs[i].Name == name {
			return &s.Knobs[i], i, nil
		}
	}
	return nil, -1, fmt.Errorf("space: no knob %q in %s", name, s.TaskName)
}
